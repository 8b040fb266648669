"""Starts the benchmark's children on behalf of a bigger parent.

    python -I -S perfbench/launcher.py

Reads one JSON request per line on stdin,
{"argv", "cwd", "env", "timeout", "stdout", "stderr"}, runs that child to
completion with its output in the two named files, and answers with one
JSON line {"returncode", "wall_s", "maxrss_mb", "self_maxrss_mb"}.  Exits
at the end of its input.

Why a separate process: on Linux, exec folds the peak resident set of
the image it replaces into the new program's ru_maxrss.  A child started
straight from run.py, which has numpy and scipy loaded, would report at
least run.py's own peak.  This process imports only the standard
library, so the floor it adds is its own few MB (self_maxrss_mb).
"""

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(req["timeout"], _kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here
    return {"returncode": proc.returncode, "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "self_maxrss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        try:
            reply = run(json.loads(line))
        except Exception as exc:      # report, keep serving
            reply = {"error": repr(exc)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
