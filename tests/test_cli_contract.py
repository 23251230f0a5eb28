"""No CLI input reaches a traceback: every run exits 0, or 2 with one line.

``cli.main`` catches only typed failures: ValueError (DomainError among
them), OSError, RunGuardError and MemoryError, and every ``name = value``
line a run prints must hold a finite number, so a silent inf or NaN fails
the test too.  Each subcommand is driven with the seeded calls of
``contract_draw.cli_calls``: its numeric options over the whole finite
float range, each one given as a flag (``--name=value`` or ``--name
value``) or as a config-file value (where a JSON integer may be far beyond
the float range), so an OverflowError, a ZeroDivisionError or a TypeError
from arithmetic escapes ``main`` and fails the test, as does a numpy
RuntimeWarning, which the test settings turn into an error, and an
argparse usage error.  Each test fails with the first drawn call that
broke the contract.

The wave packet's step builder ``wavepacket.splu`` is replaced by a stub
that raises a RunGuardError sentinel, so no run starts; everything the
wavepacket command checks before the step still runs.
"""

import json
import math

import contract_draw as draw
import pytest

from twostate import cli, wavepacket
from twostate.params import RunGuardError


def _stub_splu(*args):
    raise RunGuardError("factorization reached")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    # a cached free-run time would be read and kept under the stub: clear it
    wavepacket._free_arrival.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wavepacket, "splu", _stub_splu)
        yield tmp_path_factory.mktemp("contract")
    wavepacket._free_arrival.cache_clear()


def _check(call, out_dir, capsys) -> None:
    """Run the call's argv with its config file (and a sweep's ``--out``):
    exit 0 with nothing on stderr, or 2 with one ``error:`` line, and in
    either case every ``name = value`` printed is a finite number."""
    argv, config = call
    path = out_dir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [*argv, f"--config={path}"]
    if argv[0] == "sweep":
        argv.append(f"--out={out_dir / 'sweep'}")
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2, (argv, rc, err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    for line in out.splitlines():
        if " = " in line:
            assert math.isfinite(float(line.partition(" = ")[2])), (argv, out)


def test_sweep_options(out_dir, capsys):
    draw.first_breach(_check, draw.cli_calls("sweep"), out_dir, capsys)


def test_greens_options(out_dir, capsys):
    draw.first_breach(_check, draw.cli_calls("greens"), out_dir, capsys)


def test_wavepacket_options(out_dir, capsys):
    draw.first_breach(_check, draw.cli_calls("wavepacket"), out_dir, capsys)
