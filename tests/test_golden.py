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
        "alloc.svg": "4c664b367f5d60bf79c07a622336f86d0d4de8465c094ef412024dd9ed1470ef",
        "multipliers.svg": "28d21e3c76d1960f1e0bf8cbf51c0cbc0c23da5b9b4790bc2ff97cbbc4cf89e8",
        "residual.svg": "323e4e33f80a0ffff5641c298da021c4646ce3aba2aea2ac015217117512d469",
    },
    ("synth:7", "bus-derived"): {
        "trace.csv": "468deb9bd4c1be8ecd421f9568f95a6d51ce30c59ae748650387a296e69f19a2",
        "summary.csv": "c077c5130f136892449d91a5cf77b4210c5f8fc7c9b12d2e0223e2f7a7e60e39",
        "oracle.csv": "ed7455e245c6f633fccf7af4fc8bdcfc8c7f9384fc4ed2523c0c4822ea84841b",
        "bounds.csv": "d6ff9eadac98d9615ea3334b569de7ed678b56a69250b95e906aafd9e5cfaeb5",
        "alloc.svg": "011f102953c87822a84570a7e46d3391725da40d2d9cad0f7d21608d5b25f464",
        "multipliers.svg": "74ffaeaad921696a35221a6e1e0538b874355fe6dc8ca7db993df0da56775fd3",
        "residual.svg": "d5a6e3e8871b25ee1429d82096654e0ab248206cfcbed7a4bb151718b49e0ce8",
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
