"""Run the fractal-dirac command line under the span tracer.

Used by the traced cli_batch run in place of ``python -m fractal_dirac.cli``:
same arguments, same stdout, stderr and exit code.  The tracer's totals go to
the JSON file named by PERFBENCH_TRACE_OUT, together with the time its root
spans (import, then the command) covered.
"""

import json
import os
import sys

import spans


def main():
    tracer = spans.Tracer(keep_depth=0)
    tracer.push("cli.import", "import")
    import fractal_dirac.cli as cli

    covered = tracer.pop()
    uninstall = spans.install(tracer)
    tracer.push("cli.process", "cli")
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    finally:
        covered += tracer.pop()
        uninstall()
        hits, misses = spans.cache_totals()
        tracer.count("cube.cache_hits", hits)
        tracer.count("cube.cache_misses", misses)
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump({"trace": tracer.export(), "covered_s": covered}, fh)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
