"""One benchmark process: a CLI command, or a set-up probe.

    python3 child.py run <spans.npz|-> <run id> <ncvi arguments...>
    python3 child.py setup <workload> <input files...>

`run` calls `ncvi.cli.main` with the given arguments, exactly as the
installed `ncvi` script would.  With a span path it first installs the
tracer and writes the spans when the command returns.  `python -m ncvi.cli`
is avoided because `ncvi/__init__.py` imports `cli`, so runpy warns.

`setup` measures what every command pays before it starts solving: a fresh
interpreter imports `ncvi.cli` and parses the workload's inputs.

The caller sets PYTHONPATH to the repository's `src` directory.
"""

from __future__ import annotations

import sys


def _run(spans: str, run_id: str, argv: list[str]) -> int:
    from ncvi import cli

    if spans == "-":
        return cli.main(argv)
    import tracer

    t = tracer.Tracer(int(run_id))
    tracer.install(t)
    try:
        return cli.main(argv)
    finally:
        t.dump(spans)


def _setup(workload: str, paths: list[str]) -> int:
    from ncvi import cli

    for path in paths:
        if path.endswith("truth.txt"):
            cli.dataio.load_ctm_params(path)
        elif workload == "blr":
            cli.dataio.parse_labeled(path)
        else:
            cli.dataio.parse_corpus(path)
    return 0


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "run":
        return _run(rest[0], rest[1], rest[2:])
    if mode == "setup":
        return _setup(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
