"""tools/cli_digests.py: its fixed CLI invocations stay valid command lines."""

import importlib.util
from pathlib import Path

import pytest

from stablegap import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
_SPEC = importlib.util.spec_from_file_location("cli_digests", TOOL)
_TOOL_MODULE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TOOL_MODULE)
INVOCATIONS = _TOOL_MODULE.INVOCATIONS


@pytest.mark.parametrize("label, argv", INVOCATIONS, ids=[label for label, _ in INVOCATIONS])
def test_every_invocation_parses(label, argv):
    # argparse exits on a flag or subcommand that the CLI no longer has
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
