"""Seeded inputs of the three workloads.

`memx` only ever sees what these functions write: `.mx` kernel files, a
`.din` trace (written by `perfbench gen-din`) and `POST /v1/jobs` bodies.
The same seed always gives the same inputs.
"""

import json
import random

# Paper-scale kernels, rendered at the given iteration extents. The
# paper-kernels seed permutes odd extents near 31 over the 2-D kernels, so
# every seed's event count is within 0.5% of the 31x31 kernels and no
# extent is a power of two (which would change how many distinct layouts
# the optimizer finds, and with it the work). MatMult, most of the work,
# stays at 31x31x31: its permuted extents cost up to 15% more or less.
KERNELS = {
    "compress": lambda r, c: f"""kernel Compress
array a[{r + 1}][{c + 1}] elem 4
for i = 1 .. {r}
for j = 1 .. {c}
  read  a[i][j]
  read  a[i-1][j]
  read  a[i][j-1]
  read  a[i-1][j-1]
  write a[i][j]
""",
    "conv2d": lambda r, c: f"""kernel Conv2D
array img[{r + 2}][{c + 2}] elem 4
array coef[3][3] elem 4
array out[{r}][{c}] elem 4
for i = 0 .. {r - 1}
for j = 0 .. {c - 1}
for k = 0 .. 2
for l = 0 .. 2
  read  img[i+k][j+l]
  read  coef[k][l]
  write out[i][j]
""",
    "dequant": lambda r, c: f"""kernel Dequant
array coeff[{r}][{c}] elem 4
array qtable[{r}][{c}] elem 4
array out[{r}][{c}] elem 4
for i = 0 .. {r - 1}
for j = 0 .. {c - 1}
  read  coeff[i][j]
  read  qtable[i][j]
  write out[i][j]
""",
    "matadd": lambda r, c: f"""kernel MatAdd
array a[{r}][{c}] elem 4
array b[{r}][{c}] elem 4
array c[{r}][{c}] elem 4
for i = 0 .. {r - 1}
for j = 0 .. {c - 1}
  read  a[i][j]
  read  b[i][j]
  write c[i][j]
""",
    "pde": lambda r, c: f"""kernel PDE
array a[{r + 2}][{c + 2}] elem 4
array b[{r + 2}][{c + 2}] elem 4
for i = 1 .. {r}
for j = 1 .. {c}
  read  a[i-1][j]
  read  a[i+1][j]
  read  a[i][j-1]
  read  a[i][j+1]
  write b[i][j]
""",
    "sor": lambda r, c: f"""kernel SOR
array a[{r + 2}][{c + 2}] elem 4
for i = 1 .. {r}
for j = 1 .. {c}
  read  a[i][j]
  read  a[i-1][j]
  read  a[i+1][j]
  read  a[i][j-1]
  read  a[i][j+1]
  write a[i][j]
""",
    "stencil": lambda r, c: f"""kernel Stencil
array a[{r + 2}][{c + 2}] elem 4
array out[{r + 2}][{c + 2}] elem 4
for i = 1 .. {r}
for j = 1 .. {c}
  read  a[i][j]
  read  a[i-1][j]
  read  a[i+1][j]
  read  a[i][j-1]
  read  a[i][j+1]
  write out[i][j]
""",
}


def matmul(i, j, k):
    return f"""kernel MatMult
array a[{i}][{k}] elem 4
array b[{k}][{j}] elem 4
array c[{i}][{j}] elem 4
for i = 0 .. {i - 1}
for j = 0 .. {j - 1}
for k = 0 .. {k - 1}
  read  c[i][j]
  read  a[i][k]
  read  b[k][j]
  write c[i][j]
"""


def paper_kernels(seed):
    """The eight paper kernels: name -> (.mx text, extents)."""
    rng = random.Random(f"paper-kernels/{seed}")
    out = {}
    for name, render in KERNELS.items():
        r, c = rng.choice([(29, 33), (31, 31), (33, 29)])
        out[name] = (render(r, c), (r, c))
    out["matmul"] = (matmul(31, 31, 31), (31, 31, 31))
    return dict(sorted(out.items()))


def body(command, **fields):
    """A `POST /v1/jobs` body, as the compact JSON text that is sent."""
    return json.dumps({"command": command, **fields}, separators=(",", ":"))


def fresh_em(k):
    """A custom SRAM `Em` (nJ/access) no other fresh job uses: its cache
    key is new, so the daemon must compute the job."""
    return float(f"{2 + k / 1000:.3f}")


class KernelJobs:
    """Daemon jobs over kernel texts: `warm` are sent during set-up and
    repeated (hits); `fresh(k)` is the k-th never-seen job (a miss)."""

    def __init__(self, warm, fresh_kernels, fresh_commands):
        self.warm = warm
        self.kernels = fresh_kernels
        self.commands = fresh_commands

    def fresh(self, k):
        # Fresh jobs cycle through every kernel and job kind in turn, so
        # each seed's misses have the same mix of costs.
        command = self.commands[k % len(self.commands)]
        text, part = self.kernels[k // len(self.commands) % len(self.kernels)]
        return body(command, kernel=text, part=part, em_nj=fresh_em(k))


def paper_jobs(kernels):
    """Daemon traffic of paper-kernels: explore and pareto jobs on every
    kernel but MatMult and Conv2D (whose misses alone take a third of a
    second or more). Fresh jobs run pareto on Dequant and MatAdd in turn:
    their costs are close, so the miss p50 falls inside one cluster of
    latencies, not on the edge between two."""
    texts = [t for n, (t, _) in kernels.items() if n not in ("matmul", "conv2d")]
    warm = [body(c, kernel=t) for t in texts for c in ("explore", "pareto")]
    fresh = [(kernels[n][0], "cy7c") for n in ("dequant", "matadd")]
    return KernelJobs(warm, fresh, ["pareto"])


SMALL = ["compress", "conv2d", "dequant", "matadd", "pde", "sor", "stencil"]
SHAPES = [(9, 11), (10, 10), (11, 9)]  # 99 or 100 iterations per kernel
PARTS = ["cy7c", "lp2m", "16m"]
COMMANDS = ["explore", "pareto", "search"]


def serve_jobs(seed):
    """Daemon traffic of serve-mixed: a pool of small kernels and SRAM
    parts under every job kind. Each kernel comes in all three shapes and
    the parts rotate over them; the seed sets which shape gets which part,
    so every seed's pool holds nearly the same amount of work."""
    warm, kernels = [], []
    for i, name in enumerate(SMALL):
        for j, command in enumerate(COMMANDS):
            for k, (r, c) in enumerate(SHAPES):
                text, part = KERNELS[name](r, c), PARTS[(i + j + k + seed) % len(PARTS)]
                kernels.append((text, part))
                warm.append(body(command, kernel=text, part=part))
    return KernelJobs(warm, list(dict.fromkeys(kernels)), COMMANDS)


class WindowJobs:
    """Daemon traffic of din-stream: inline-trace jobs over windows of the
    workload's own `.din` trace; a fresh job takes a window at an offset
    no other job uses."""

    WINDOW = 1024
    WARM_WINDOWS = 8

    def __init__(self, seed, din_lines):
        self.lines = din_lines
        rng = random.Random(f"din-windows/{seed}")
        self.slots = (len(din_lines) - self.WINDOW) // 8
        self.warm = [self._job(8 * rng.randrange(self.slots // 2), c)
                     for _ in range(self.WARM_WINDOWS) for c in COMMANDS]
        self.warm = list(dict.fromkeys(self.warm))

    def _job(self, start, command):
        text = "".join(self.lines[start:start + self.WINDOW])
        return body(command, trace=text)

    def fresh(self, k):
        # Fresh windows lie in the trace's second half, warm ones in its
        # first; the job kinds take turns.
        start = 8 * ((self.slots // 2) + k % (self.slots // 2))
        return self._job(start, COMMANDS[k % len(COMMANDS)])
