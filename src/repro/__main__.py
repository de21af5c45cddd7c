"""``python -m repro`` — package banner and subcommand dispatch.

Subcommands delegate to the experiment entry points and propagate their
exit codes: ``0`` on success, ``1`` on a failed run, ``2`` for usage
errors (unknown subcommand, bad flags) — so shell pipelines and CI can
rely on ``$?`` instead of scraping output.
"""

from __future__ import annotations

import sys

from repro import __version__

BANNER = f"""repro {__version__} — AMRI: Index Tuning for Adaptive Multi-Route Data Stream Systems
(reproduction of Works, Rundensteiner, Agu; IPPS 2010)

subcommands (python -m repro <cmd> --help for flags):
  run       scheme comparison with CSV/metrics export
            (--schemes amri:<assessor>|hash:<k>|static|inverted|scan; also
            --degrade to shed and fall back to scans instead of dying;
            --metrics/--trace print each scheme's cost table and check that
            it reconciles with the virtual clock)
  figures   regenerate the paper's figures/tables <fig6|fig6-hash|fig7|table2|all>

examples:    examples/quickstart.py | package_tracking.py | stock_monitoring.py |
             sensor_network.py | assessment_comparison.py
tests:       pytest tests/
benchmarks:  pytest benchmarks/ --benchmark-only
docs:        README.md, DESIGN.md, EXPERIMENTS.md, docs/observability.md
"""

#: subcommand -> dotted module exposing ``main(argv) -> int``
COMMANDS = {
    "run": "repro.experiments.run",
    "figures": "repro.experiments.figures",
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(BANNER)
        return 0
    command, rest = argv[0], argv[1:]
    module_name = COMMANDS.get(command)
    if module_name is None:
        print(
            f"unknown subcommand {command!r}; expected one of {sorted(COMMANDS)}",
            file=sys.stderr,
        )
        return 2
    import importlib

    entry = importlib.import_module(module_name).main
    try:
        return int(entry(rest))
    except SystemExit as exc:  # argparse --help / usage errors keep their code
        code = exc.code
        if code is None:
            return 0
        if isinstance(code, int):
            return code
        # SystemExit("message") means exit(message): print it, usage error.
        print(code, file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
