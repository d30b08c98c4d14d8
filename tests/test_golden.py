"""Same outputs for a fixed seed: translate skeletons and synth reports
and models, compared byte for byte with the files in tests/golden/seed0/,
and the sha256 of the synth reports and models at the benchmark's search
configuration (population 50, 10 generations, seeds 0-2) and at the
paper's default CbC search (population 400, 10 generations, seed 0).

Regenerate the golden files only when a change of output is intended:
    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from pathlib import Path

from construct.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "seed0"
CONTAINERS = ("pi", "pid", "limpid")
SYNTH = ("--pop", "20", "--gens", "5", "--seed", "0")


def write_outputs(out: Path) -> None:
    """Every golden file, written into out."""
    for name in CONTAINERS:
        root = str(REPO / "fixtures" / name)
        assert main(["translate", root, "--out", str(out / f"{name}.skeleton.mo")]) == 0
        for mode in ("cbc", "cbt"):
            stem = out / f"{name}-{mode}"
            code = main(["synth", root, "--mode", mode, *SYNTH,
                         "--report", f"{stem}.report.json", "-o", f"{stem}.mo"])
            assert code in (0, 2)  # 2: no simulatable candidate, no model


def test_outputs_match_golden_files(tmp_path, capsys):
    write_outputs(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# the sha256 of each file synth writes at population 50, 10 generations:
# a report for every run, a model for every run that found a candidate
BENCHMARK_DIGESTS = {
    "pi-0-cbc.report.json":
        "8efe736be1e7fda3d35e866469d64350bce114cd42c2148ec89ab819825f5477",
    "pi-0-cbc.mo":
        "49d7d9170f33edace0cd0a19d36486806d8c2b755548f6750c6be91d57c218c0",
    "pi-0-cbt.report.json":
        "6ab25ef2dabda209720fc009b522b4bb6181e41dfbbe75cf366ac5d78ea5239c",
    "pi-1-cbc.report.json":
        "a4656af9a7b95a39f5c057a25c22a5c00f8ebee252a9979c76d300d1378bac4e",
    "pi-1-cbc.mo":
        "c8986253e92d944a5063a3e07ebd972e5a9cff7ba230b21aee2d3725e9f45aac",
    "pi-1-cbt.report.json":
        "c1d23741322a9fecf00139385036fcdd3e614d01c7f2c86f1a72e6892d5ad73d",
    "pi-2-cbc.report.json":
        "25bf43b642256047cffe122416148a2ac052ea8f733c665185b1644840f5597c",
    "pi-2-cbc.mo":
        "fe1aa78cad536a3599a8f66693f604ff8393d6e97607e9782763bc26740ed776",
    "pi-2-cbt.report.json":
        "7179aaa01c8c56f4720df575091eaa385a1c3567f6f1f221901f47bdfd9ee610",
    "pid-0-cbc.report.json":
        "ca185f6142b8588ee1d364ea69ee3041b5369df02c308a8c360fb8236cae3993",
    "pid-0-cbc.mo":
        "fc1d4b1e5833f251ec250ab666eed0705fdbd25b940bd68aab082f60ec5e3d51",
    "pid-0-cbt.report.json":
        "1e0c7648f050897fdf080a352fc383b7bc569e8eb11117617e02be76fa5d9f99",
    "pid-1-cbc.report.json":
        "772960f293e4a73bc60755919693cad1404f05e9ffeb2123a15145aaed7391a6",
    "pid-1-cbc.mo":
        "87f36b354e91ba7fe3ecc1b3e1d8bbce7238534eb4525a494b75f3ae6de72aa2",
    "pid-1-cbt.report.json":
        "0184cd799212adc74b038a535c73d14bfd0ee6c2d9c1595baa00f430388c65c8",
    "pid-2-cbc.report.json":
        "2c8e1d79c3e5d979f1ffaafefe3d3c5a38eb0040eb13616b8c1f960203682dc1",
    "pid-2-cbc.mo":
        "42e6554e0526a9e92bc0d1f5460656989aa1524b3d01c47e77129fe948adf5c7",
    "pid-2-cbt.report.json":
        "0a8d1cf6695ac4f2493415fa9c3858bf30279be4276672dac1e6ef12fe5db6bf",
    "limpid-0-cbc.report.json":
        "024d2a044f53536ab38aa41a7dcba4070b3d394c1e88cc8fe4fed4335e5a4f22",
    "limpid-0-cbc.mo":
        "cd808506551cae7c7c43643a638fc606fd432cea71051fb4a2a5f975eb686bc6",
    "limpid-0-cbt.report.json":
        "a2fe49475e1296db60cd2d81067b85ce01e1110ce8dd062dcbfdbd90e98c597a",
    "limpid-1-cbc.report.json":
        "12d760976539c96c0df08ea3d27c688f94bbc03c8d12a1a2d9c9f34d1283c3ec",
    "limpid-1-cbc.mo":
        "5fa70a3bf5fbb5810b93337a0f00bf0fdb47b1eb2af7ddd344b0ec4b9bcb896c",
    "limpid-1-cbt.report.json":
        "b189a76541f25681347d044cc08c72c5f36997fdba1043be9364003456203e2a",
    "limpid-2-cbc.report.json":
        "703637a3bba07b3c7c5fcdc24176d5dc84b469c452b60a72ecb5d16cf93ba578",
    "limpid-2-cbc.mo":
        "4c5ae7a873d0edfcafb9807d91f03401f99bb020c4ef68e7fb70d013ed408aec",
    "limpid-2-cbt.report.json":
        "9c1e0acdf242bc83241517ceb88aba4850e5c593cb3747cb43e133b0165da721",
}


def test_synth_outputs_at_the_benchmark_configuration_keep_their_digests(tmp_path, capsys):
    for name in CONTAINERS:
        for seed in range(3):
            for mode in ("cbc", "cbt"):
                stem = tmp_path / f"{name}-{seed}-{mode}"
                code = main(["synth", str(REPO / "fixtures" / name), "--mode", mode,
                             "--pop", "50", "--gens", "10", "--seed", str(seed),
                             "--report", f"{stem}.report.json", "-o", f"{stem}.mo"])
                assert code in (0, 2)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == BENCHMARK_DIGESTS


# the sha256 of each file CbC synth writes at the paper's default
# population 400, 10 generations, seed 0: far more crossover, repair and
# mutation than the population-50 runs above
PAPER_DEFAULT_DIGESTS = {
    "pi.report.json": "825f96da4442d29d930457931f1019865e0605ff405781cedba571b871071f56",
    "pi.mo": "49d7d9170f33edace0cd0a19d36486806d8c2b755548f6750c6be91d57c218c0",
    "pid.report.json": "021b21296a5bdb326f1c93ff90d4f14b57e1241d622f1769f2cbe6f1d982fea2",
    "pid.mo": "31886873956b1849fb769e8e2114332b98fa6d5d513e803e817fc6a71ec14eaa",
    "limpid.report.json": "40303d859541eada3357c53392766a520927133118a24737c702699643a69ced",
    "limpid.mo": "390d59f8c765f75cda42516069bdc68232ec95d158f70e9d851ac778a1c4c373",
}


def test_cbc_synth_outputs_at_the_paper_default_keep_their_digests(tmp_path, capsys):
    for name in CONTAINERS:
        stem = tmp_path / name
        code = main(["synth", str(REPO / "fixtures" / name), "--mode", "cbc",
                     "--pop", "400", "--gens", "10", "--seed", "0",
                     "--report", f"{stem}.report.json", "-o", f"{stem}.mo"])
        assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == PAPER_DEFAULT_DIGESTS


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    write_outputs(GOLDEN)
