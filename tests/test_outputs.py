"""Whole CLI outputs, byte for byte, against sha256 digests recorded earlier.

Each case runs one command in a fresh directory and hashes its stdout and
every file it writes.  Only the run times are masked: the ``elapsed:`` line,
the ``(0.53s)`` of the ``verify`` summary and the ``seconds`` field of its
JSON report.  A change that keeps every digest keeps these outputs
identical; a change that means to alter them records new digests and says
why.
"""

import hashlib
import json
import re

import pytest

from coregrowth.cli import main

SIM_OUTPUTS = ("boundary_csv", "rho_csv", "occupancy_csv", "svg", "report_json")

CASES = {
    "chain-k4": (
        ["chain", "--k", "4", "--json", "chain.json", "--csv", "pi.csv"],
        ("chain.json", "pi.csv"),
        "73675914d0c46d72209e95247ed5ec055b17c7f39ee0bb5c86bbfa30c3adae52",
    ),
    "verify-k4-all": (
        ["verify", "--k", "4", "--suite", "all", "--json", "report.json"],
        ("report.json",),
        "8b00ef646015511f7db02b05d42deaca21c2a667a9b7724f332e45d92d4e9760",
    ),
    "simulate-k3": (
        ["simulate", "--config", "run.json"],
        SIM_OUTPUTS,
        "a62c340dab26aff7202fb3e4b5cb9dd041718319e2b4a635bb5db25a0a801e65",
    ),
    "dims-k6-all-reduced": (
        ["dims", "--k", "6", "--all-reduced"],
        (),
        "20b2651dbcf18d8fa46566ecedb7a8790ac17b80abeb3a9e215bc5499e0b857a",
    ),
    "verify-k6-appendix": (
        ["verify", "--k", "6", "--suite", "appendix"],
        (),
        "18f44c0960fc096317440d9797ec7a3793c7ada449e8d541be65bc3410a1d854",
    ),
    "tasep-k4-empty": (
        ["tasep", "--k", "4", "--state", ""],
        (),
        "38b259d5e5751f07fc52b4e0e018892095b97446266abdbf8abbea535e1199f6",
    ),
    "tasep-k6": (
        ["tasep", "--k", "6", "--word", "2-1-4-3-6-5-7"],
        (),
        "dc52b3f2bde7d08fd10fdb835807ea8f0f0bea9f8f59d0454ae167d4ed47451d",
    ),
}


def _masked(text: str) -> str:
    text = "".join(line for line in text.splitlines(True) if not line.startswith("elapsed:"))
    text = re.sub(r"\(\d+\.\d+s\)$", "(s)", text, flags=re.M)
    return re.sub(r'"seconds": [0-9.]+', '"seconds": 0', text)


def output_digest(argv, files, capsys) -> str:
    """sha256 of the masked stdout and files of one ``main(argv)`` in the current directory."""
    with open("run.json", "w", encoding="utf-8") as fh:
        json.dump({"k": 3, "n": 20000, "seed": 7, "outputs": {x: x for x in SIM_OUTPUTS}}, fh)
    capsys.readouterr()
    assert main(argv) == 0
    digest = hashlib.sha256(_masked(capsys.readouterr().out).encode())
    for name in files:
        with open(name, encoding="utf-8") as fh:
            digest.update(b"\0" + name.encode() + b"\0" + _masked(fh.read()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_are_byte_identical(case, tmp_path, monkeypatch, capsys):
    argv, files, expected = CASES[case]
    monkeypatch.chdir(tmp_path)
    assert output_digest(argv, files, capsys) == expected
