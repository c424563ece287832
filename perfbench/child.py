"""One fresh rsfield process of the benchmark.

It imports ``rsfield.cli`` and loads and parses the config (set-up),
then runs a first op and warm ops until ``seconds`` after set-up,
starting a warm op only while it can end in time.  When traced, the
first third of that time runs untraced and the rest with the layer
wrappers installed.  After every op it times the calibration kernels named in
``kernels`` (``calibration.py``); the samples after the first op are discarded, as
that call also warms the kernels up.

Every op is ``rsfield.cli.main(argv)`` writing into its own output
directory.  The result, including the monotonic time at which set-up
ended, the peak RSS after the first op, the kernel times and, when traced, each traced op's layer metrics, is written as
JSON to the ``result`` path named in the JSON argument; the spans go to
its ``spans`` path.
The caller checks the outputs afterwards, outside this process.
"""

import json
import resource
import sys
import time

import rsfield.cli as cli


def _parse_config(path, command):
    cfg = cli.load_config(path)
    if command == "casimir":
        cfg = cli.parse_casimir_config(cfg)
    return cfg


def _run_op(argv):
    t0 = time.perf_counter()
    error = None
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing op is a failed op, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, error


def _write_trace(tracer, result, args):
    """Write every span out once, then reduce each traced op to its metrics."""
    from tracing import analyse_op

    with open(args["spans"], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span[0], []).append(span)
    result["absent"] = tracer.absent
    result["layers"] = [
        analyse_op(by_op[index])
        for index, op in enumerate(result["ops"])
        if op["kind"] == "traced"
    ]


def main():
    args = json.loads(sys.argv[1])
    _parse_config(args["config"], args["argv"][0])
    ready = time.monotonic()
    result = {"ready": ready, "ops": []}

    def op(kind, tracer=None):
        index = len(result["ops"])
        argv = list(args["argv"])
        argv[argv.index("--out") + 1] = f"{args['out_base']}/op-{index:03d}"
        if tracer is None:
            wall, rc, error = _run_op(argv)
        else:
            t0 = tracer.begin_op(index)
            _, rc, error = _run_op(argv)
            wall = tracer.end_op(t0)
        result["ops"].append(
            {"kind": kind, "wall": wall, "rc": rc, "error": error, "out": argv[argv.index("--out") + 1]}
        )
        return wall

    start = time.perf_counter()
    op("first")
    # A user's process runs one op, so its peak is the first op's; the
    # kernels below are not the program's memory.
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import calibration

    result["calibration"] = samples = []
    calibration.time_kernels(args["kernels"])
    phases = [("warm", start + args["seconds"], None)]
    if args["trace"]:
        from tracing import Tracer

        phases = [
            ("warm", start + args["seconds"] / 3.0, None),
            ("traced", start + args["seconds"], Tracer()),
        ]
    for kind, deadline, tracer in phases:
        if tracer is not None:
            tracer.install()
        while True:
            last = op(kind, tracer)
            samples.append(calibration.time_kernels(args["kernels"]))
            last += sum(samples[-1].values())
            if time.perf_counter() + last > deadline:
                break
        if tracer is not None:
            _write_trace(tracer, result, args)
    with open(args["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
