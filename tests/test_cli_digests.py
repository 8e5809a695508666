"""tools/cli_digests.py and tools/cold_start.py: their fixed CLI invocations
stay valid command lines."""

import importlib.util
from pathlib import Path

import pytest

from stablegap import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _invocations(tool):
    spec = importlib.util.spec_from_file_location(tool, TOOLS / f"{tool}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INVOCATIONS


# the cold-start runs take the ids "cold_start-" + label
INVOCATIONS = _invocations("cli_digests") + [
    (f"cold_start-{label}", argv) for label, argv in _invocations("cold_start")]


@pytest.mark.parametrize("label, argv", INVOCATIONS, ids=[label for label, _ in INVOCATIONS])
def test_every_invocation_parses(label, argv):
    # argparse exits on a flag or subcommand that the CLI no longer has
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
