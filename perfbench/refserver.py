"""The reference server that host-speed probes time (see ``harness.HostSpeed``).

Usage (started by the benchmark itself)::

    python3 perfbench/refserver.py <unix-socket-path>

It connects to the benchmark client's socket and answers every
newline-terminated JSON request with a fixed JSON reply, after one
scattered read over a 1.6 MB array.  Its code is the benchmark's, not the
program's, so the time of a round trip to it changes only with the host.
Both ends read unbuffered, a byte per system call: the probe's cost is then
mostly system calls and process switches on the one shared CPU, which is
what the short served requests are most exposed to, plus the kind of
memory gather the SLING kernel does.  It exits when the client closes the
connection.
"""

import json
import socket
import sys

import numpy as np


def main(path: str) -> None:
    data = np.random.default_rng(12345).random(200_000)
    index = np.random.default_rng(54321).integers(0, 200_000, size=2_000)
    value = [{"node": node, "score": node / 7} for node in range(10)]
    reply = (json.dumps({"ok": True, "value": value}) + "\n").encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(path)
        stream = sock.makefile("rwb", buffering=0)
        for line in iter(stream.readline, b""):
            json.loads(line)
            float(data[index].sum())
            stream.write(reply)


if __name__ == "__main__":
    main(sys.argv[1])
