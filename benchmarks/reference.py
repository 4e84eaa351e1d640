"""A fixed pure-Python job that gauges how fast the host runs right now.

    python3 benchmarks/reference.py      # prints one checksum line

It uses only the standard library and never imports g2atomic, so no change
to the package moves its time. It does the package's kind of work: sparse
integer polynomials held in dicts and accumulated in place under
tuple-keyed weights. bench.py runs it as a fresh process between workload
calls and divides the time metrics by its slowdown against REFERENCE_S.
"""


def job() -> int:
    acc: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(300):
        p = {e: (7 * e + a) % 13 - 6 for e in range(48) if (7 * e + a) % 13 != 6}
        for b in range(40):
            k = b % 5 - 2
            if not k:
                continue
            tgt = acc.get((a % 97, b))
            if tgt is None:
                tgt = acc[(a % 97, b)] = {}
            for e, c in p.items():
                e2 = e + b
                s = tgt.get(e2, 0) + c * k
                if s:
                    tgt[e2] = s
                else:
                    del tgt[e2]
    return sum(len(q) * (w[0] + 3 * w[1]) + sum(q.values()) for w, q in acc.items())


if __name__ == "__main__":
    print(job())
