"""Byte-identity pins for the command line.

Every case runs ``main(argv)`` in-process, from a working directory that
holds the small machine and series files below, and hashes its exit code,
stdout and stderr together. The hashes must equal those recorded in
``tests/cli_golden.json``, so any change to a byte the CLI prints, or to
an exit code, fails here. Paths are relative, so the bytes do not depend
on where the files live, and ``COLUMNS`` is pinned for argparse's usage
lines.

To re-record after an intended output change, run from the repository
root::

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change log why the bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from haltseries.cli import main

import corpus

GOLDEN = Path(__file__).with_name("cli_golden.json")

MACHINES = {
    "halt.m": "halt\n",
    "loop.m": "loop: decjz 1 loop\n",
    "three.m": "inc 0\ninc 0\nhalt\n",
    "countdown.m": "loop: decjz 0 done\ndecjz 2 loop\ndone: halt\n",
    "doubler.m": (
        "loop: decjz 0 done\n      inc 1\n      inc 1\n"
        "      decjz 2 loop\ndone: halt\n"
    ),
    "wide.m": "registers 4\ninc 3\nhalt\n",
    "fall.m": "inc 0\n",
}

BAD_MACHINES = {
    "bad_arity.m": "inc\n",
    "bad_op.m": "inc 0\nfoo 1\n",
    "bad_target.m": "decjz 0 nowhere\n",
    "bad_far.m": "inc 0\ndecjz 0 7\n",
    "bad_regs_arity.m": "registers 2 3\nhalt\n",
    "bad_regs_dup.m": "registers 1\nregisters 1\nhalt\n",
    "bad_regs_zero.m": "registers 0\n",
    "bad_regs_small.m": "registers 2\ninc 5\n",
    "bad_label.m": "9x: halt\n",
    "bad_label_dup.m": "a: inc 0\na: halt\n",
    "bad_lonely.m": "lonely:\n",
    "bad_halt.m": "halt 0\n",
    "bad_decjz.m": "decjz 0\n",
    "bad_reg_big.m": "inc 4096\n",
    "bad_reg_text.m": "inc x\n",
    "bad_empty.m": "# nothing\n",
}

SERIES = {
    "zero.s": "builtin zero",
    "one.s": "builtin one",
    "harmonic.s": "builtin harmonic",
    "alternating.s": "builtin alternating",
    "recip.s": "builtin reciprocal_factorial",
    "ftail3.s": "builtin factorial_tail 3",
    "ftail0.s": "builtin factorial_tail 0",
    "geo_half.s": "builtin geometric 1/2",
    "geo_neg_half.s": "builtin geometric -1/2",
    "geo_zero.s": "builtin geometric 0",
    "geo_two_thirds.s": "builtin geometric 2/3",
    "geo_three_halves.s": "builtin geometric 3/2",
    "geo_neg_two.s": "builtin geometric -2",
    "straddle.s": "explicit 1/3 2/3 | tail 1",
    "straddle_neg.s": "explicit -1/3 -2/3 | tail -1",
    "seesaw.s": "explicit 3 -3 2 -2 1 -1",
    "spike.s": "explicit 0 0 5",
    "repeat.s": "explicit 1 -1 1 -1 | tail 0",
    "falling.s": "explicit 2 -1/2 -1/4 -1/8 | tail -1/16",
    "sink.s": "# a comment line\nexplicit -1/7 | tail -2",
    "halting_three.s": "halting three.m 0",
    "halting_loop.s": "halting loop.m 0",
    "halting_countdown.s": "halting countdown.m 2",
}

# Inputs whose outputs carry values of more than 4300 digits: factorials in
# the forward preview and in threshold certificates, sums with huge
# denominators or integer parts, and a program whose code is that long.
LARGE_INPUTS = {
    "long.m": corpus.LONG_PROGRAM,
    "halting_doubler.s": "halting doubler.m 1200\n",
}

# S_N = N at every even N below 300, where the threshold detector's dyadic
# enclosure of these thirds straddles N and it sums exactly; the sum first
# exceeds N at N = 300, where S_300 = 300 + 2/3.
NEAR_THRESHOLD = {
    "near.s": "explicit 0 " + " ".join("2/3" if i % 2 else "4/3" for i in range(1, 300)) + " 2",
}

BAD_SERIES = {
    "bad_empty.s": "# nothing",
    "bad_builtin.s": "builtin",
    "bad_name.s": "builtin nope",
    "bad_params.s": "builtin geometric",
    "bad_ftail.s": "builtin factorial_tail 1/2",
    "bad_input.s": "halting three.m x",
    "bad_program.s": "halting missing.m 0",
    "bad_tail.s": "explicit 1 | nope 2",
    "bad_rational.s": "explicit 1/0",
    "bad_kind.s": "mystery 1",
    "bad_two.s": "builtin zero\nbuiltin one",
}


def _cases() -> list[list[str]]:
    cases: list[list[str]] = []
    add = cases.append

    for machine in MACHINES:
        for budget in ("1", "10", "1000"):
            add(["simulate", machine, "--input", "3", "--budget", budget])
    for machine in BAD_MACHINES:
        add(["simulate", machine, "--input", "0", "--budget", "10"])
    add(["simulate", "missing.m", "--input", "0", "--budget", "1"])

    for machine in ("halt.m", "loop.m", "three.m", "countdown.m", "doubler.m"):
        for r, budget in (("1", "2"), ("1", "4"), ("1", "30"), ("1/2", "30"), ("1/9", "12")):
            add(["forward", machine, "--input", "2", "--r", r, "--budget", budget])
        add(["forward", machine, "--input", "2", "--r", "1", "--budget", "30", "--kv"])
    for r in ("0", "-1", "x"):
        add(["forward", "three.m", "--input", "0", "--r", r, "--budget", "4"])

    for spec in SERIES:
        for kind in ("threshold", "cauchy", "cauchy-heuristic"):
            add(["detect", spec, "--kind", kind, "--budget", "3"])
            add(["detect", spec, "--kind", kind, "--budget", "25"])
            add(["detect", spec, "--kind", kind, "--budget", "25", "--kv"])
    knob_sets = (
        ["--horizon-scale", "1"],
        ["--horizon-scale", "3", "--window-cap", "1"],
        ["--window-cap", "1/3", "--tolerance", "1"],
        ["--tolerance", "1/8"],
    )
    for spec in ("one.s", "geo_half.s", "geo_neg_half.s", "seesaw.s", "repeat.s",
                 "falling.s", "harmonic.s", "alternating.s"):
        for knobs in knob_sets:
            base = ["detect", spec, "--kind", "cauchy-heuristic", "--budget", "12", *knobs]
            add(base)
            add(base + ["--kv"])
    for kind in ("threshold", "cauchy", "cauchy-heuristic"):
        add(["detect", "one.s", "--kind", kind, "--budget", "4", "--show-program"])
    add(["detect", "one.s", "--kind", "cauchy-heuristic", "--budget", "4",
         "--show-program", "--horizon-scale", "3", "--window-cap", "1", "--tolerance", "1/4"])
    for bad in BAD_SERIES:
        add(["detect", bad, "--kind", "threshold", "--budget", "3"])
    for budget in ("299", "600"):
        add(["detect", "near.s", "--kind", "threshold", "--budget", budget])
        add(["detect", "near.s", "--kind", "threshold", "--budget", budget, "--kv"])
    for knobs in (["--horizon-scale", "0"], ["--window-cap", "2"], ["--window-cap", "x"],
                  ["--window-cap", "0"], ["--tolerance", "0"], ["--tolerance", "-1/2"]):
        add(["detect", "one.s", "--kind", "cauchy-heuristic", "--budget", "3", *knobs])
    add(["detect", "one.s", "--kind", "nope", "--budget", "3"])
    add(["detect", "one.s", "--kind", "threshold"])
    add(["detect", "missing.s", "--kind", "threshold", "--budget", "3"])

    for spec in ("recip.s", "geo_half.s", "geo_neg_half.s", "harmonic.s", "zero.s",
                 "alternating.s", "straddle.s"):
        for r, m, rate in (("1", "5", "exp_tail"), ("1/2", "3", "constant:7"),
                           ("1", "0", "linear:2:1"), ("1", "2", "table:4,1,9")):
            add(["eval", spec, "--r", r, "-m", m, "--rate", rate])
    for r, m, rate in (("2", "3", "exp_tail"), ("1", "9", "table:4,1,9"), ("1", "1", "nope"),
                       ("1", "1", "constant:x"), ("-1", "1", "exp_tail")):
        add(["eval", "recip.s", "--r", r, "-m", m, "--rate", rate])

    for spec in ("ftail3.s", "geo_three_halves.s", "geo_half.s", "geo_zero.s", "zero.s",
                 "one.s", "alternating.s", "seesaw.s", "halting_three.s", "halting_loop.s"):
        for r, threshold in (("1", "2"), ("1/2", "2"), ("3", "3/2")):
            add(["probe", spec, "--kind", "ratio", "--r", r, "--threshold", threshold,
                 "--budget", "30"])
        add(["probe", spec, "--kind", "ratio", "--budget", "5", "--kv"])
        add(["probe", spec, "--kind", "root", "--n-max", "6"])
    # No witness for crossings that hold through the budget and no proof
    # past it: e^z's ratio 100/(n + 1) falls below 2 after n = 49, and an
    # explicit tail has no term shape.
    for budget in ("30", "60"):
        add(["probe", "recip.s", "--kind", "ratio", "--r", "100", "--threshold", "2",
             "--budget", budget])
    add(["probe", "straddle.s", "--kind", "ratio", "--r", "3", "--threshold", "2",
         "--budget", "30"])
    for spec in ("ftail3.s", "one.s", "geo_three_halves.s", "recip.s"):
        add(["probe", spec, "--kind", "effective", "--rate", "constant:1", "--radius", "1",
             "--k-max", "4", "--n-budget", "30"])
        add(["probe", spec, "--kind", "effective", "--rate", "linear:2:1", "--radius", "2/3",
             "--k-max", "3", "--n-budget", "20", "--kv"])
    for spec, limit, rate in (("geo_half.s", "2", "linear:1:1"), ("geo_half.s", "2", "constant:3"),
                              ("geo_neg_half.s", "2/3", "linear:1:2"), ("zero.s", "0", "constant:0"),
                              ("recip.s", "2", "exp_tail"), ("geo_two_thirds.s", "3", "linear:2:0")):
        add(["probe", spec, "--kind", "modulus", "--limit", limit, "--rate", rate,
             "--n-max", "8"])
        add(["probe", spec, "--kind", "modulus", "--limit", limit, "--rate", rate,
             "--n-max", "8", "--kv"])
    add(["probe", "one.s", "--kind", "ratio"])
    add(["probe", "one.s", "--kind", "effective", "--rate", "constant:1"])
    add(["probe", "one.s", "--kind", "modulus", "--limit", "1", "--rate", "bogus", "--n-max", "2"])
    add(["probe", "one.s", "--kind", "ratio", "--threshold", "1", "--budget", "3"])
    add(["probe", "one.s", "--kind", "effective", "--rate", "constant:1", "--radius", "0",
         "--k-max", "1", "--n-budget", "3"])
    add(["probe", "one.s", "--kind", "root", "--n-max", "0"])

    for machine in list(MACHINES) + ["bad_arity.m", "missing.m"]:
        add(["encode", machine])
    # 55 decodes to "inc 1" with one register, 21 to "decjz 0 1" in a
    # one-instruction program
    for code in ("0", "1", "2", "5", "21", "55", "9161340", "123456789", str(10 ** 40), "-3", "x"):
        add(["encode", "--decode", code])
    add(["encode"])

    for x, r in (("1200", "1/2"), ("2500", "1")):
        add(["forward", "doubler.m", "--input", x, "--r", r, "--budget", "20000"])
        add(["forward", "doubler.m", "--input", x, "--r", r, "--budget", "20000", "--kv"])
    for r in ("1", "1/3"):
        add(["eval", "recip.s", "--r", r, "-m", "20000", "--rate", "exp_tail"])
    add(["eval", "harmonic.s", "--r", "1", "-m", "0", "--rate", "constant:20000"])
    add(["eval", "ftail3.s", "--r", "1", "-m", "0", "--rate", "constant:3000"])
    for flags in ([], ["--kv"]):
        add(["probe", "ftail3.s", "--kind", "ratio", "--r", "7e300", "--threshold", "2",
             "--budget", "30", *flags])
        add(["detect", "halting_doubler.s", "--kind", "threshold", "--budget", "5000", *flags])
    add(["encode", "long.m"])
    # Integers past the interpreter's default 4300-digit limit in report and
    # CLI lines: a halt step, budgets, a term count and a rate's precision.
    big_input, big_budget = "1" + "0" * 4400, "1" + "0" * 4402
    add(["simulate", "doubler.m", "--input", big_input, "--budget", big_budget])
    add(["simulate", "loop.m", "--input", "0", "--budget", big_budget])
    for flags in ([], ["--kv"]):
        add(["forward", "loop.m", "--input", "0", "--r", "1", "--budget", big_budget, *flags])
        add(["probe", "zero.s", "--kind", "ratio", "--budget", big_budget, *flags])
    add(["eval", "zero.s", "--r", "1", "-m", "0", "--rate", "constant:" + big_budget])
    add(["eval", "recip.s", "--r", "1", "-m", big_budget, "--rate", "table:4,1,9"])

    add([])
    add(["nope"])
    add(["simulate", "halt.m", "--input", "-1", "--budget", "10"])
    add(["simulate", "halt.m", "--input", "0", "--budget", "0"])
    add(["simulate", "halt.m", "--input", "0"])
    add(["simulate", "halt.m", "--input", "x", "--budget", "1"])
    add(["forward", "halt.m", "--input", "0", "--r", "1", "--budget", "-5"])
    add(["probe", "one.s", "--kind", "root", "--n-max", "-1"])
    add(["eval", "recip.s", "--r", "1", "-m", "-1", "--rate", "exp_tail"])
    return cases


def _write_inputs(directory: Path) -> None:
    for name, text in {**MACHINES, **BAD_MACHINES}.items():
        (directory / name).write_text(text)
    for name, text in {**SERIES, **NEAR_THRESHOLD, **BAD_SERIES}.items():
        (directory / name).write_text(text + "\n")
    for name, text in LARGE_INPUTS.items():
        (directory / name).write_text(text)


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _digests() -> dict[str, str]:
    """Run every case in the current directory, keyed by its command line."""
    digests = {}
    for argv in _cases():
        key = " ".join(argv)
        assert key not in digests, f"duplicate case {key!r}"
        digests[key] = _digest(argv)
    return digests


def _check_digests(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    _write_inputs(tmp_path)
    expected = json.loads(GOLDEN.read_text())
    got = _digests()
    assert sorted(got) == sorted(expected), "the case list differs from the recording"
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"{len(changed)} cases changed, first: {changed[:5]}"


def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch):
    _check_digests(tmp_path, monkeypatch)


def test_cli_output_does_not_depend_on_the_int_digit_limit(tmp_path, monkeypatch):
    with corpus.int_digit_limit(640):
        _check_digests(tmp_path, monkeypatch)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            _write_inputs(Path(scratch))
            recorded = _digests()
        finally:
            os.chdir(home)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
