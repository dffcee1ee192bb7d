"""Run one ``cobwebs.cli`` command with span tracing installed.

Usage: python bench/cli_child.py SPANS_PATH ARG...

The traced run of the cli-oneshot workload starts this script in place of
``python -m cobwebs.cli ARG...``.  It records the import of ``cobwebs.cli``
as a ``cli.import`` span, wraps the public API as ``spans.install`` does
in-process, calls ``cobwebs.cli.main(ARG...)``, writes the spans to
SPANS_PATH as JSON lines and exits with the command's status.
"""

import sys

from spans import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import cobwebs.cli

    tracer.end(idx)
    install(tracer)
    try:
        return cobwebs.cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
