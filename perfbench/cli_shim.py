"""Run one bideriv CLI call with the benchmark's tracer installed.

usage: python cli_shim.py TRACE_PATH TASK_ID ARGS...

Times ``import bideriv.cli``, installs the same wrappers as the in-process
traced run, times argument parsing, calls ``bideriv.cli.main(ARGS)`` and
writes the spans and timings to TRACE_PATH, also when main raises.  The
exit status is the one ``python -m bideriv ARGS...`` would give.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import bideriv.cli as cli  # noqa: E402

import_ms = (perf_counter() - t0) * 1000

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, task, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    timings = {"import_ms": import_ms}
    build_parser = cli.build_parser

    def timed_build_parser():
        start = perf_counter()
        parser = build_parser()
        parse_args = parser.parse_args

        def timed_parse_args(argv=None, namespace=None):
            try:
                return parse_args(argv, namespace)
            finally:
                timings["parse_args_ms"] = (perf_counter() - start) * 1000

        parser.parse_args = timed_parse_args
        return parser

    cli.build_parser = timed_build_parser
    tracer = Tracer()
    tracer.task = task
    tracer.install()
    start = perf_counter()
    try:
        return tracer.wrap("cli.main", cli.main)(args)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        timings["main_ms"] = (perf_counter() - start) * 1000
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump({"timings": timings, "trace": tracer.export()}, fh)


if __name__ == "__main__":
    sys.exit(main())
