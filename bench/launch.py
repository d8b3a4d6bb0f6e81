"""Start requests from a small process, so that their peak RSS is their own.

A process's ru_maxrss also counts the peak RSS of the image it was exec'd
from, so requests started straight from the benchmark would report at least
the benchmark's own size.  This helper stays small (run it with -S): it
reads one JSON line [argv, stdout path, stderr path] per request, runs argv
with its output sent to those files, and answers with one JSON line:
[wall seconds, peak RSS in KB, exit code].
"""

import json
import os
import sys
import time


def main():
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            dt = time.perf_counter() - t0
        print(json.dumps([dt, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)


if __name__ == "__main__":
    main()
