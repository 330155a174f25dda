"""Golden SHA-256 digests of every output of two fixed CLI runs and their replays.

Any change to numerical behaviour or output formatting changes a digest. Such
a change must be deliberate: re-pin the digests below and record why in
CHANGES.md.
"""

import hashlib

import pytest

from netalloc.cli import main

GOLDEN = {
    ("builtin:ieee14", "cycle"): {
        "trace.csv": "10997faa023586b231c34b30e122d90f498e2e94c181e6d79b8550085cf51d0c",
        "summary.csv": "53b64e684519a68005e9030fb4b70bf3e280d21f300901273e5433c5c39a2b4d",
        "oracle.csv": "ed3e044dab8678dc1ef4c6b4b829bf5f95fc15f4e7db96de53bb635a4ba519e1",
        "bounds.csv": "a43c0aeecfbbc81381f216e2cbc55556b799edd843ef0cb44b7c9c4b45a2077b",
        "alloc.svg": "0fbedb01e04870e29a11e2c85f475f305f96f6d46a8df9121537534e2f36aa68",
        "multipliers.svg": "92b03c4d92dcbbb78198884fc0363d5facde93b0c61d1f0dd02be5af78207c74",
        "residual.svg": "a63ef4e0240b0ed643af1eef2047fa6256394d7e8dbaba632f1f1510ecf729fe",
    },
    ("synth:7", "bus-derived"): {
        "trace.csv": "468deb9bd4c1be8ecd421f9568f95a6d51ce30c59ae748650387a296e69f19a2",
        "summary.csv": "c077c5130f136892449d91a5cf77b4210c5f8fc7c9b12d2e0223e2f7a7e60e39",
        "oracle.csv": "ed7455e245c6f633fccf7af4fc8bdcfc8c7f9384fc4ed2523c0c4822ea84841b",
        "bounds.csv": "d6ff9eadac98d9615ea3334b569de7ed678b56a69250b95e906aafd9e5cfaeb5",
        "alloc.svg": "5c83df02d297f63456954962fc6a50a6d687f732133bdc473dc1f9dd07c0eaf5",
        "multipliers.svg": "942d683547820afcb51be15e056713824f4e9bd5c236ed63603b997c71452d03",
        "residual.svg": "1e495d6eef842179c7178a70ba564a6d34bef3309ebf9b864e1a21764ef7d421",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case,graph", sorted(GOLDEN))
def test_run_and_replay_digests(tmp_path, capsys, case, graph):
    common = ["--case", case, "--graph", graph, "--schedule", "recip-sqrt"]
    run_dir = tmp_path / "run"
    assert main(["run", *common, "--iters", "5000", "--out", str(run_dir)]) == 0
    got = {name: _sha256(run_dir / name) for name in GOLDEN[(case, graph)]}
    assert got == GOLDEN[(case, graph)]

    replay_dir = tmp_path / "replay"
    trace = str(run_dir / "trace.csv")
    assert main(["bounds", *common, "--trace", trace, "--out", str(replay_dir)]) == 0
    assert _sha256(replay_dir / "bounds.csv") == GOLDEN[(case, graph)]["bounds.csv"]
    capsys.readouterr()
