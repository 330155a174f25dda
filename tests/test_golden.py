"""Golden SHA-256 digests of every output of three fixed CLI runs and their replays.

Any change to numerical behaviour or output formatting changes a digest. Such
a change must be deliberate: re-pin the digests below and record why in
CHANGES.md.
"""

import hashlib

import pytest

from netalloc.cli import main

# builtin:ieee14 with generator 3's gamma set to 0.0: a flat (linear) cost
CASE_FILES = {
    "ieee14-flat3.csv": (
        "# demand=300.0 name=ieee14-flat3\n"
        "id,bus,gamma,beta,mu,pmin,pmax\n"
        "1,1,0.04,2.0,0.0,0.0,80.0\n"
        "2,2,0.03,3.0,0.0,0.0,90.0\n"
        "3,3,0.0,4.0,0.0,0.0,70.0\n"
        "4,6,0.03,4.0,0.0,0.0,70.0\n"
        "5,8,0.04,2.5,0.0,0.0,80.0\n"
    ),
}

GOLDEN = {
    ("builtin:ieee14", "cycle"): {
        "trace.csv": "7c2f10e98494037cc38f04d9cd9f70e8ef98cfe11af2ef89ff472c3604639a4d",
        "summary.csv": "f46ce38d4f8d189f5be937155fb1d57b4e5b9636d9afc24fd763d2a611caee7a",
        "oracle.csv": "98127f46de85bddb45be976ca5a15017bf8fd47106b9b40ae7d96886ac906053",
        "bounds.csv": "a4caf91bcfd9b8439c5d493e3855450a60c7b7ad91f345eae6ab976663ecd1b3",
        "alloc.svg": "4c664b367f5d60bf79c07a622336f86d0d4de8465c094ef412024dd9ed1470ef",
        "multipliers.svg": "28d21e3c76d1960f1e0bf8cbf51c0cbc0c23da5b9b4790bc2ff97cbbc4cf89e8",
        "residual.svg": "323e4e33f80a0ffff5641c298da021c4646ce3aba2aea2ac015217117512d469",
    },
    ("ieee14-flat3.csv", "cycle"): {
        "trace.csv": "64da27049ed7d91d1be578383abd17ed914ccaadabea44e91bbc85e43bdb0de4",
        "summary.csv": "d387c151e488e9ee1c4306e3974def73dd420de96a21b66382b1efbea48f0d7f",
        "oracle.csv": "6f4af972303edff79bfeda0a2ab0239dd70a0e280338f05100d2cd43dd446727",
        "bounds.csv": "30a39d58c559c07ba2bc65f395be7cbbc9416ce45e3a49ffd5d2bf9d22ae72db",
        "alloc.svg": "ac27e6c828cb59db1dafbdd6448743d563f6aba2e968732e02e1c61c665a903e",
        "multipliers.svg": "c06567c842318e99e17632efcac164249b35e7b09a77dede6c3d8a72ff583036",
        "residual.svg": "a82617a4a80c73921ee9c1018671f0743955cb96af4e489fd249a3bc114043f5",
    },
    ("synth:7", "bus-derived"): {
        "trace.csv": "248f901ef974fe90e89729e2c8dbfa0b9d200d0b053651396767aea35e6a813e",
        "summary.csv": "30271d627d68277009a377a787dfab64cc5504044443da604fe06198b7454d99",
        "oracle.csv": "ae42d18718b0e4e8ef230cc98a9dfe013d5dd9ad5a3fb9e8bc1b1ecde70a15c0",
        "bounds.csv": "0136072ab2c4081dfc1f890f3644613d37abff5deb180fe6d4d20f4619e9110a",
        "alloc.svg": "245838ea5f8edf53d0f0f1d226f1ae049d86161aa89c9fe34b9124fe8a92ab53",
        "multipliers.svg": "a5b463d4c2382b6c203d0edd86826356ecf3eb08cd160d0a8d0bfbd6c3e67e6f",
        "residual.svg": "a47aeb98655c4896a56f90fc2c42123e8c2f96034dd81831e6f301caaa8e16e8",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case,graph", sorted(GOLDEN))
def test_run_and_replay_digests(tmp_path, capsys, case, graph):
    spec = case
    if case in CASE_FILES:
        spec = tmp_path / case
        spec.write_text(CASE_FILES[case], encoding="utf-8")
    common = ["--case", str(spec), "--graph", graph, "--schedule", "recip-sqrt"]
    run_dir = tmp_path / "run"
    assert main(["run", *common, "--iters", "5000", "--out", str(run_dir)]) == 0
    got = {name: _sha256(run_dir / name) for name in GOLDEN[(case, graph)]}
    assert got == GOLDEN[(case, graph)]

    replay_dir = tmp_path / "replay"
    trace = str(run_dir / "trace.csv")
    assert main(["bounds", *common, "--trace", trace, "--out", str(replay_dir)]) == 0
    assert _sha256(replay_dir / "bounds.csv") == GOLDEN[(case, graph)]["bounds.csv"]
    capsys.readouterr()
