"""Start the benchmark's timed children from a small process and report their cost.

The timed children are the CLI calls and the yardstick runs around them. A
child's ``ru_maxrss`` includes the resident size of the process that forked
it, so they are started from this process, which imports nothing
heavy, instead of from the benchmark process, which holds the in-process
reference. One JSON request per stdin line:

    {"argv": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout_s": 120}

and one JSON answer per line: exit code, wall seconds from spawn to exit,
user + system CPU seconds and peak RSS in MiB, both from ``wait4``.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(request["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    # SIGTERM unwinds through run(), which then kills the call in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
