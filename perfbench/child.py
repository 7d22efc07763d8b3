"""Run one `thermalsum` command in this fresh process and record what it cost.

    python3 child.py RESULT_JSON [--trace] -- reproduce sim2 --seed 1 ...

Times `import thermalsum.cli`, then calls the real entry point
`thermalsum.cli.main` with the arguments after `--` and catches its
SystemExit, so the process lives on to record the command's wall time, its
exit code and its peak resident memory (VmHWM of this process; the
getrusage figure would include the parent's peak, which exec carries over).
With no arguments after `--` it only imports. `--trace` turns on the
per-layer spans (see spans.py); without it nothing is wrapped.
"""

import sys
import time


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    sep = sys.argv.index("--")
    result_path, traced = sys.argv[1], "--trace" in sys.argv[2:sep]
    command = sys.argv[sep + 1:]
    if traced:  # brackets the -X importtime lines that belong to the timed import
        sys.stderr.write("perfbench: import start\n")
        sys.stderr.flush()
    t0 = time.perf_counter()
    import thermalsum.cli as cli
    import_s = time.perf_counter() - t0
    recorder = None
    if traced:
        sys.stderr.write("perfbench: import done\n")
        sys.stderr.flush()
        import spans

        recorder = spans.install()
    wall_s, code = 0.0, 0
    if command:
        t1 = time.perf_counter()
        try:
            cli.main(args=command, prog_name="thermalsum")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        wall_s = time.perf_counter() - t1
    import json

    result = {"import_s": import_s, "wall_s": wall_s, "exit_code": code,
              "peak_rss_kib": _peak_rss_kib()}
    if recorder is not None:
        result["spans"] = recorder.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
