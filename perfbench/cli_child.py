"""Run `satree.cli.main` as the CLI child of `cli-run`, and report its own peak RSS.

Usage: python3 perfbench/cli_child.py MEASURES.json SPANS.npz|- <satree arguments>

Calls `satree.cli.main` with the satree arguments, as `python -m satree.cli`
would, and exits with its exit code; the CLI's report goes to standard
output as usual.  Then it writes to MEASURES.json the process's peak RSS,
read from VmHWM in /proc/self/status.  VmHWM belongs to the address space
made at exec, so unlike `ru_maxrss` it does not inherit the peak of the
parent that forked this process.

With SPANS.npz instead of `-`, the call runs under the tracer: the spans
go to SPANS.npz, and MEASURES.json also gets the requests read from traces
and the length of every CostLedger.per_request at exit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import satree.cli  # noqa: E402


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    measures_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    if spans_path == "-":
        code = satree.cli.main(cli_args)
        measures = {}
    else:
        from tracer import Tracer

        tracer = Tracer()
        read = []
        ledgers = {}
        tracer.hooks["workloads.read_trace"] = lambda args, result: read.append(len(result))
        tracer.hooks["tree.end_request"] = lambda args, result: ledgers.setdefault(id(args[0]), args[0])
        with tracer:
            code = satree.cli.main(cli_args)
        tracer.save(spans_path)
        measures = {
            "requests_read": sum(read),
            "ledger_entries": sum(len(led.per_request) for led in ledgers.values()),
        }
    measures["peak_rss_mb"] = peak_rss_mb()
    Path(measures_path).write_text(json.dumps(measures))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
