"""Every flag of every subcommand is honoured or rejected, never silently ignored.

The walk starts from one cheap run per subcommand.  For each flag of that
subcommand it repeats the run with one value that differs from the run's own,
and the repeat must either exit 1 with an error naming the flag, or change some
output: the exit code, stdout, or any emitted file outside the report's
``config`` block (which records the flags and so always changes).
"""
import json

import numpy as np
import pytest

import dnlslab as lab
from dnlslab.cli import build_parser, main
from dnlslab.reports import canonical_json

# the flags that place or seed a run rather than choose its work
INFRASTRUCTURE = {"help", "out", "config"}

# command -> (the base run's flags, {flag: the other value, or None for a switch});
# {field} and {traj} stand for input files the test writes
WALK = {
    "solve": (["--N", "4", "--M", "8", "--T", "0.05"], {
        "--tag": "other", "--equation": "free", "--plane-wave": "A=0.1,n=1",
        "--datum": "{field}", "--seed": "8", "--amplitude": "0.2", "--active-band": "2",
        "--cutoff": "5", "--horizon": "0.1", "--steps": "10", "--max-iter": "2",
        "--tol": "1e-4", "--via-gauge": None, "--cross-check": None}),
    "gauge": (["--input", "{field}"], {
        "--input": "{field2}", "--output": "other.csv", "--inverse": None,
        "--time": "0.3"}),
    "norms": (["--input", "{traj}", "--b", "0.5"], {
        "--tag": "other", "--input": "{traj2}", "--s": "0.3", "--r": "1.5", "--b": "0.4",
        "--p": "inf", "--z": None}),
    "divisors": (["--max", "1000"], {"--tag": "other", "--max": "2000", "--refined": None}),
    "scan-sums": (["--truncations", "8", "--a-min", "-2", "--a-max", "2", "--a-step", "2",
                   "--anchor-min", "-2", "--anchor-max", "2", "--anchor-step", "2"], {
        "--tag": "other", "--variant": "wabs_xi", "--epsilon": "0.3", "--truncations": "16",
        "--a-min": "-1", "--a-max": "1", "--a-step": "1", "--anchor-min": "-1",
        "--anchor-max": "1", "--anchor-step": "1"}),
    "counterexample": (["--mode", "translation", "--n-list", "4,16"], {
        "--tag": "other", "--mode": "both", "--truncations": "10,100",
        "--n-list": "4,8", "--amplitude": "0.5", "--s": "0.3", "--r": "1.5"}),
    "ratio-scan": (["--q", "1.5", "--samples", "2", "--cutoff", "2", "--steps", "8"], {
        "--tag": "other", "--kind": "quintic", "--q": "1.6", "--r": "1.8", "--s": "0.3",
        "--b": "0.4", "--samples": "3", "--cutoff": "3", "--steps": "10", "--seed": "1",
        "--truncations": "10,100"}),
    "verify": ([], {"--tag": "other"}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    paths = {name: str(root / f"{name}.csv") for name in ("field", "field2", "traj", "traj2")}
    lab.save_field(paths["field"], lab.random_field(4, rng, l2_norm=0.1))
    lab.save_field(paths["field2"], lab.random_field(4, rng, l2_norm=0.1))
    lab.save_trajectory(paths["traj"], lab.random_trajectory(2, rng, window=1.0, steps=8))
    lab.save_trajectory(paths["traj2"], lab.random_trajectory(2, rng, window=1.0, steps=8))
    return paths


def _run(argv, out, capsys):
    """Exit code, stderr, and what the run emitted: stdout and every file but the
    report's config block, with the output directory written as OUT."""
    code = main([*argv, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    emitted = {"stdout": stdout.replace(str(out), "OUT")}
    for path in sorted(out.rglob("*")):
        text = path.read_text()
        if path.suffix == ".json":
            report = json.loads(text)
            report.pop("config")
            text = canonical_json(report)
        emitted[str(path.relative_to(out))] = text
    return code, stderr, emitted


@pytest.mark.parametrize("command", list(WALK))
def test_every_flag_is_honoured_or_rejected(tmp_path, capsys, inputs, command):
    base, values = WALK[command]
    subparser = build_parser()[1][command]
    flags = {action.option_strings[0]: action.dest for action in subparser._actions
             if action.option_strings and action.dest not in INFRASTRUCTURE}
    assert set(values) == set(flags), "every flag needs a value in WALK"
    base = [command, *(arg.format(**inputs) for arg in base)]
    code, stderr, emitted = _run(base, tmp_path / "base", capsys)
    assert code == 0, stderr
    parser = build_parser()[0]
    for i, (flag, value) in enumerate(values.items()):
        argv = [*base, flag, *([] if value is None else [value.format(**inputs)])]
        dest = flags[flag]
        assert getattr(parser.parse_args(argv), dest) != getattr(parser.parse_args(base), dest)
        got_code, got_stderr, got = _run(argv, tmp_path / str(i), capsys)
        if got_code == 1:
            assert flag in got_stderr, (flag, got_stderr)
        else:
            assert (got_code, got) != (code, emitted), f"{command} ignores {flag} {value}"
