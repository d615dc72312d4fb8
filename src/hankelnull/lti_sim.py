"""Discrete-time LTI simulation and noisy multi-experiment dataset generation.

All randomness flows from a single root generator. Anything that touches
several experiments derives one child stream per experiment index up front.
generate_dataset spawns its Nt streams first, so a noiseless record i
depends only on the root seed and i. add_noise spawns its streams from the
same root afterwards, so the noise on record i also depends on how many
streams were spawned before it, that is on the ensemble size: the first k
records of a noisy ensemble are not the noisy k-record ensemble.
Everything else runs as array code over the whole ensemble, or over blocks
of BLOCK_SIZE records where a per-record temporary would otherwise grow
with the ensemble. Dataset text I/O, which is bound by float formatting
and parsing, runs in forked processes on a machine with more than one CPU
when a file is big enough to repay the fork (see _processes). Writing and
loading cut a file the same way, into parts of contiguous records (see
_in_parts).
"""

import json
import math
import os
import signal
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .hankel import pe_order_check

__all__ = [
    "StateSpace",
    "Dataset",
    "NoiseSpec",
    "NOISE_FAMILIES",
    "X0_POLICIES",
    "simulate",
    "generate_pe_input",
    "add_noise",
    "generate_dataset",
    "random_system",
    "save_dataset",
    "load_dataset",
]

NOISE_FAMILIES = ("gaussian", "uniform", "shifted-exponential")
X0_POLICIES = ("zero", "random-bounded")

BLOCK_SIZE = 512  # records per block in the excitation check, the writer and aggregation
MAX_TRIES = 10  # input draws per record before the excitation check gives up
FORK_MIN_SAMPLES = 50_000  # samples a forked I/O process must format or parse to repay starting it


@dataclass(frozen=True)
class StateSpace:
    """x_{k+1} = A x_k + B u_k,  y_k = C x_k + D u_k."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n, m, p = self.A.shape[0], self.B.shape[1], self.C.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m}, got {self.B.shape}")
        if self.C.shape != (p, n):
            raise ValueError(f"C must be {p}x{n}, got {self.C.shape}")
        if self.D.shape != (p, m):
            raise ValueError(f"D must be {p}x{m}, got {self.D.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass(frozen=True)
class Dataset:
    """Nt records sharing N, m and p: inputs U (Nt, N, m), outputs Y (Nt, N, p).

    A slice gives a smaller Dataset over the same arrays; record i is
    U[i] and Y[i]. Every sample must be finite.
    """

    U: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if U.ndim != 3 or Y.ndim != 3 or U.shape[:2] != Y.shape[:2]:
            raise ValueError(f"U and Y must be (Nt, N, m) and (Nt, N, p), got shapes {U.shape} and {Y.shape}")
        if U.shape[0] < 1:
            raise ValueError("dataset needs at least one experiment")
        bad = ~(np.isfinite(U).all(axis=(1, 2)) & np.isfinite(Y).all(axis=(1, 2)))
        if bad.any():
            raise ValueError(f"record {int(np.argmax(bad))} has non-finite samples")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)

    def __getitem__(self, key: slice) -> "Dataset":
        if not isinstance(key, slice):
            raise TypeError(f"a Dataset takes a slice, not {type(key).__name__}; record i is U[i] and Y[i]")
        return Dataset(self.U[key], self.Y[key])

    @property
    def Nt(self) -> int:
        return self.U.shape[0]

    @property
    def N(self) -> int:
        return self.U.shape[1]

    @property
    def m(self) -> int:
        return self.U.shape[2]

    @property
    def p(self) -> int:
        return self.Y.shape[2]


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. scalar noise family pinned down by its first two raw moments.

    m1 and m2 are raw moments, so the variance is m2 - m1**2. A zero-variance
    spec is allowed and means a deterministic offset of m1. All families have
    finite moments of every order.
    """

    family: str
    m1: float
    m2: float

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}, expected one of {NOISE_FAMILIES}")
        if self.m2 < self.m1 ** 2:
            raise ValueError(f"m2={self.m2} implies negative variance for m1={self.m1}")

    @property
    def variance(self) -> float:
        return self.m2 - self.m1 ** 2

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        var = self.variance
        if var == 0.0:
            return np.full(shape, self.m1)
        if self.family == "gaussian":
            return rng.normal(self.m1, math.sqrt(var), shape)
        if self.family == "uniform":
            # half-width w solves (2w)^2 / 12 = var
            w = math.sqrt(3.0 * var)
            return rng.uniform(self.m1 - w, self.m1 + w, shape)
        # shifted exponential with scale s has mean shift+s and variance s^2
        s = math.sqrt(var)
        return (self.m1 - s) + rng.exponential(s, shape)


def _simulate_batch(ss: StateSpace, X0: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Outputs (B, N, p) of the exact state recursion, from states X0 (B, n)
    and inputs U (B, N, m), one time step at a time over the whole batch."""
    Y = np.empty(U.shape[:2] + (ss.p,))
    At, Bt, Ct, Dt = ss.A.T, ss.B.T, ss.C.T, ss.D.T
    X = X0
    for k in range(U.shape[1]):
        uk = U[:, k]
        Y[:, k] = X @ Ct + uk @ Dt
        X = X @ At + uk @ Bt
    return Y


def simulate(ss: StateSpace, x0, U) -> np.ndarray:
    """Run the exact state recursion over an input sequence U (N, m).

    Returns the outputs Y (N, p) with y_k = C x_k + D u_k and
    x_{k+1} = A x_k + B u_k.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    if U.ndim != 2 or U.shape[1] != ss.m:
        raise ValueError(f"U must be Nx{ss.m}, got shape {U.shape}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (ss.n,):
        raise ValueError(f"x0 must have {ss.n} entries, got shape {np.shape(x0)}")
    return _simulate_batch(ss, x[None], U[None])[0]


def generate_pe_input(N: int, m: int, order: int, rng: np.random.Generator, max_tries: int = MAX_TRIES) -> np.ndarray:
    """Draw an N x m input whose depth-`order` Hankel matrix has full row rank.

    Entries are i.i.d. standard normal, which is exciting with probability
    one; the rank is still verified and the draw retried a bounded number of
    times rather than assumed.
    """
    need = (m + 1) * order - 1  # below this, the Hankel matrix is too narrow for rank m*order
    if N < need:
        raise ValueError(f"N={N} cannot excite order {order} with m={m} inputs; need N >= {need}")
    for _ in range(max_tries):
        U = rng.standard_normal((N, m))
        if pe_order_check(U, order):
            return U
    raise RuntimeError(f"no exciting input of order {order} found in {max_tries} draws")


def add_noise(ds: Dataset, spec_u: NoiseSpec, spec_y: NoiseSpec, rng: np.random.Generator) -> Dataset:
    """Perturb every input and output sample by an independent draw.

    Each experiment gets its own child stream, and within a stream the input
    block is drawn before the output block, so corruption is reproducible and
    independent across time, channels, experiments and the two signals.
    """
    U, Y = ds.U.copy(), ds.Y.copy()
    for i, g in enumerate(rng.spawn(ds.Nt)):
        U[i] += spec_u.draw(g, U.shape[1:])
        Y[i] += spec_y.draw(g, Y.shape[1:])
    return Dataset(U, Y)


def generate_dataset(
    ss: StateSpace,
    Nt: int,
    N: int,
    L: int,
    x0_policy: str,
    rng: np.random.Generator,
    x0_halfwidth: float = 1.0,
) -> Dataset:
    """Generate Nt independent noiseless experiments of length N.

    Every input is verified persistently exciting of order L + n. Initial
    states are zero or drawn uniformly from a hypercube of the given
    half-width, per policy. Record i draws its initial state, then its
    input, from child stream i; an input that fails the excitation check is
    redrawn from the same stream, up to MAX_TRIES draws in all.
    """
    if Nt < 1:
        raise ValueError("Nt must be >= 1")
    if x0_policy not in X0_POLICIES:
        raise ValueError(f"unknown x0 policy {x0_policy!r}")
    order = L + ss.n
    if N < (ss.m + 1) * order - 1:
        raise ValueError(f"N={N} too short for excitation order L+n={order} with m={ss.m}; need N >= {(ss.m + 1) * order - 1}")
    streams = rng.spawn(Nt)
    X0 = np.zeros((Nt, ss.n))
    U = np.empty((Nt, N, ss.m))
    for i, g in enumerate(streams):
        if x0_policy == "random-bounded":
            X0[i] = g.uniform(-x0_halfwidth, x0_halfwidth, ss.n)
        U[i] = g.standard_normal((N, ss.m))
    for a in range(0, Nt, BLOCK_SIZE):
        for i in a + np.flatnonzero(~pe_order_check(U[a : a + BLOCK_SIZE], order)):
            try:
                U[i] = generate_pe_input(N, ss.m, order, streams[i], MAX_TRIES - 1)
            except RuntimeError:
                raise RuntimeError(f"record {i}: no exciting input of order {order} found in {MAX_TRIES} draws") from None
    if Nt == 1:
        # a one-row batch takes numpy's matrix-vector product, which rounds
        # differently from the matrix-matrix product of larger batches;
        # simulating the record twice keeps it the same at every ensemble size
        return Dataset(U, _simulate_batch(ss, np.repeat(X0, 2, axis=0), np.repeat(U, 2, axis=0))[:1])
    return Dataset(U, _simulate_batch(ss, X0, U))


def random_system(n: int, m: int, p: int, rng: np.random.Generator, spectral_radius: float = 0.9) -> StateSpace:
    """Random state-space model with A rescaled to the given spectral radius."""
    A = rng.standard_normal((n, n))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho > 0.0:
        A *= spectral_radius / rho
    return StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), rng.standard_normal((p, m)))


def _record_format(N: int, m: int, p: int) -> str:
    """%-format of one JSONL record: its index, then u and y row by row.

    %.17g prints 17 significant digits, which round-trip binary64 exactly.
    """
    def matrix(cols: int) -> str:
        return "[" + ",".join(["[" + ",".join(["%.17g"] * cols) + "]"] * N) + "]"

    return '{"i":%d,"u":' + matrix(m) + ',"y":' + matrix(p) + "}\n"


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as JSON Lines: a meta header, then one experiment per line.

    Each block of records is formatted by one %-operation over its rows.
    The records are written in parts (see _write_parts), as many as get
    FORK_MIN_SAMPLES samples each (see _processes).
    """
    record = _record_format(ds.N, ds.m, ds.p)

    def records(lo: int, hi: int, fh) -> None:
        for a in range(lo, hi, BLOCK_SIZE):
            b = min(a + BLOCK_SIZE, hi)
            U, Y = ds.U[a:b], ds.Y[a:b]
            rows = np.concatenate([np.arange(a, b, dtype=float)[:, None], U.reshape(b - a, -1), Y.reshape(b - a, -1)], axis=1)
            fh.write(record * (b - a) % tuple(rows.ravel().tolist()))

    header = json.dumps({"meta": {"Nt": ds.Nt, "N": ds.N, "m": ds.m, "p": ds.p}}) + "\n"
    _write_parts(path, header, ds.Nt, _processes(ds.Nt, ds.U.size + ds.Y.size, FORK_MIN_SAMPLES), records)


# ints parse as floats so that a sample written as "-0" keeps its sign
_decode_record = json.JSONDecoder(parse_int=float).decode


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset into arrays sized from its meta header.

    A regular file is loaded in as many parts of contiguous records as
    save_dataset writes it in (see _in_parts); each part reads and counts
    the records before its own, so an error names a record by its index in
    the whole file. Any other file, a pipe say, is read in one pass.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: first line is not UTF-8: {err}") from None
        except json.JSONDecodeError as err:
            raise json.JSONDecodeError(f"{path}: first line: {err.msg}", err.doc, err.pos) from None
        meta = header.get("meta") if isinstance(header, dict) else None
        if not (isinstance(meta, dict) and all(k in meta for k in ("Nt", "N", "m", "p"))):
            raise ValueError(f"{path}: first line needs a meta header object with integer Nt, N, m and p")
        Nt, N, m, p = (_positive_int(path, f"meta header's {k}", meta[k]) for k in ("Nt", "N", "m", "p"))
        # a file that is not regular cannot be opened again from its start, so one part reads it
        parts = _processes(Nt, Nt * N * (m + p), FORK_MIN_SAMPLES) if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else 1
        # forked parsers write straight into the caller's arrays
        empty = np.empty if parts == 1 else _shared_empty
        try:
            U, Y = empty((Nt, N, m)), empty((Nt, N, p))
        except (MemoryError, OSError, OverflowError, ValueError):  # the last two past the address space
            raise ValueError(f"{path}: meta header's Nt={Nt}, N={N}, m={m} and p={p} do not fit in memory") from None

        def part(k: int, lo: int, hi: int) -> None:
            if k == 0:
                return _parse_records(fh, path, lo, hi, U, Y)
            with open(path, "rb") as own:
                own.readline()
                _parse_records(own, path, lo, hi, U, Y)

        _in_parts(Nt, parts, part)
    try:
        return Dataset(U, Y)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _load_json(path):
    """The JSON value in a whole file; a malformed one raises naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise json.JSONDecodeError(f"{path}: {err.msg}", err.doc, err.pos) from None


def _positive_int(path, field: str, value) -> int:
    """A JSON count as an int; 4.0 reads as 4. A bool, a string, a number
    that is not integral or one below 1 raises, naming the file and field."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 1:
        raise ValueError(f"{path}: {field} is {value!r}, expected a positive integer")
    return int(value)


def _number_array(path, field: str, value) -> np.ndarray:
    """A JSON array of numbers as floats. A ragged array or an entry that is
    not a number (a string or null, say) raises, naming the file and field."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None  # ragged
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{path}: {field} is not a rectangular array of numbers")
    return arr.astype(float)


def _parse_records(fh, path, lo: int, hi: int, U: np.ndarray, Y: np.ndarray) -> None:
    """Read the dataset lines left in fh, skipping blank ones, and parse
    records [lo, hi) into U and Y.

    The records before lo are read and counted, so an error names a record
    by its index in the whole file. A part that ends before the last record
    stops at hi; the last part reads to the end of the file. A file that
    ends before hi raises, naming how many records it holds.
    """
    Nt, N, m = U.shape
    p = Y.shape[2]
    i = 0
    for line in fh:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: record {i} is not UTF-8: {err}") from None
        if not text.strip():
            continue
        if i == Nt:
            raise ValueError(f"{path}: more experiment lines than the meta header's Nt={Nt}")
        if i >= lo:
            try:
                obj = _decode_record(text)
                u, y = np.asarray(obj["u"], dtype=float), np.asarray(obj["y"], dtype=float)
            except json.JSONDecodeError as err:
                raise json.JSONDecodeError(f"{path}: record {i}: {err.msg}", err.doc, err.pos) from None
            except (KeyError, TypeError):
                raise ValueError(f"{path}: record {i} needs u and y sample arrays") from None
            except ValueError as err:
                raise ValueError(f"{path}: record {i}: {err}") from None
            if u.shape != (N, m) or y.shape != (N, p):
                raise ValueError(f"{path}: record {i} has u {u.shape} and y {y.shape}, meta header says ({N}, {m}) and ({N}, {p})")
            U[i], Y[i] = u, y
        i += 1
        if i == hi < Nt:
            break
    if i < hi:
        raise ValueError(f"{path}: {i} experiment lines disagree with the meta header's Nt={Nt}")


def _shared_empty(shape) -> np.ndarray:
    """An uninitialised float array in an anonymous shared mapping, so that
    what a forked child writes into it, this process sees."""
    import mmap  # here, so that importing hankelnull does not load it

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def _cpus() -> int:
    """CPUs this process may run on, or 1 off Linux, where _in_parts does not fork."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _processes(n: int, work: int, min_work: int) -> int:
    """How many parts _in_parts cuts rows [0, n) into when they hold this
    much work in all: one per CPU, but only as many as get min_work each,
    and at most one per row. Work is in the caller's unit: samples of one
    dataset file with FORK_MIN_SAMPLES, or CSV rows with
    estimator.LANDSCAPE_FORK_MIN_ROWS. A grid search never forks."""
    return max(1, min(n, _cpus(), work // min_work))


def _in_parts(n: int, parts: int, part) -> None:
    """Cut rows [0, n) into parts contiguous ranges, range k being
    [n*k//parts, n*(k+1)//parts), and run part(k, lo, hi) on every range at
    once.

    Part 0 runs in this process, and each other part in a child started
    with os.fork, so one part forks nothing. A child reports only its exit
    status, so a part hands its output over in memory the child shares
    with this process: an array made with _shared_empty, or a memory file
    (see _write_parts). A part whose child failed is run again here, so
    that its error is raised with its own type and message; if it runs
    without error here, ChildProcessError names the part and how its child
    ended. Failures are raised in part order, and every child has ended
    when this returns.

    fork, not a fresh interpreter: the child starts with the caller's data
    and imports nothing, so a caller script needs no `if __name__ ==
    "__main__":` guard. A child leaves through os._exit, so it never
    returns into the caller's frames or flushes the caller's buffers. A
    lock another thread holds stays locked in a forked child (Python 3.12
    and later warn of it). The parts run here take no Python-level lock,
    and call no BLAS or LAPACK: each child formats or parses text.
    """
    cuts = [n * k // parts for k in range(parts + 1)]
    children = {}
    try:
        for k in range(1, parts):
            pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    part(k, cuts[k], cuts[k + 1])
                    ok = True
                finally:
                    os._exit(0 if ok else 1)
            children[k] = pid
        part(0, 0, cuts[1])
        for k in range(1, parts):
            status = os.waitpid(children[k], 0)[1]
            del children[k]
            if status:
                part(k, cuts[k], cuts[k + 1])
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise ChildProcessError(f"part {k} of {parts}: its forked process {how}, but the part runs here without error")
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)  # a failure came first, so its result is no longer wanted
            os.waitpid(pid, 0)


def _write_parts(path, header: str, n: int, parts: int, rows) -> None:
    """Write header and rows [0, n) to the text file path in parts of
    contiguous rows (see _in_parts); rows(lo, hi, fh) writes rows [lo, hi)
    to fh.

    Part 0 writes the header and its rows straight into the file. Each
    forked part formats its rows into an anonymous memory file, and the
    caller appends the parts in order, each as long as its memory file,
    with os.sendfile, a copy made in the kernel. The bytes are the same at
    any part count.
    """
    fds = []

    def part(k: int, lo: int, hi: int) -> None:
        if k == 0:
            fh.write(header)
            return rows(lo, hi, fh)
        with open(fds[k - 1], "w", encoding="utf-8", closefd=False) as mem:
            rows(lo, hi, mem)

    try:
        fds.extend(os.memfd_create(f"part {k}") for k in range(1, parts))
        with open(path, "w", encoding="utf-8") as fh:
            _in_parts(n, parts, part)
            fh.flush()
            for fd in fds:
                size, sent = os.fstat(fd).st_size, 0
                while sent < size:
                    copied = os.sendfile(fh.fileno(), fd, sent, size - sent)
                    if copied == 0:
                        raise OSError(f"{path}: a part ended after {sent} of its {size} bytes")
                    sent += copied
    finally:
        for fd in fds:
            os.close(fd)
