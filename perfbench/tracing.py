"""Layer tracing from outside the program.

The tracer wraps public functions of splitlab's modules and rebinds each
wrapper under every name a splitlab module bound the original to (`from .x
import f` copies the reference, so patching only the defining module would
miss those callers). Nothing in the package changes on disk, and `uninstall`
puts every original back.

Each wrapped call is a span (name, start, end, parent). Self time is the span
minus the time its child spans cover, computed on exit. The hot leaf layers
are called millions of times on a 10^7 scan, so per-name statistics are
always aggregated while raw spans are kept only up to SPAN_CAP per name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs that become spans; is_prime spans are further
# split by the bit length of the argument.
SPAN_TARGETS = (
    ("primes", "iter_primes"),
    ("primes", "is_prime"),
    ("primes", "find_prime_in_ap"),
    ("primes", "crt_solve"),
    ("quadratic", "splitting_type"),
    ("multiquadratic", "local_data"),
    ("multiquadratic", "totally_split"),
    ("series", "partial_sum"),
    ("series", "series_term"),
    ("density", "density_checkpoints"),
    ("northcott", "select_prime_window"),
    ("constructions", "construct_prescribed_quadratic"),
    ("constructions", "build_divergence_tower"),
    ("constructions", "build_split_prime_tower"),
    ("constructions", "certify_adjoin_i_convergence"),
    ("traceio", "validate_schema"),
    ("traceio", "verify_trace_doc"),
    ("traceio", "dumps_canonical"),
    ("cli", "run"),
)

# kronecker costs ~0.8 us a call; a span would cost more than the call.
COUNT_TARGETS = (("primes", "kronecker"),)

IS_PRIME_BUCKETS = (64, 512, 1024, 2048)

PACKAGE = "splitlab"
SPAN_CAP = 2000  # raw spans kept per name


def bit_bucket(n: int) -> str:
    bits = int(n).bit_length()
    for edge in IS_PRIME_BUCKETS:
        if bits <= edge:
            return f"b{edge}"
    return f"b{IS_PRIME_BUCKETS[-1]}"


class Tracer:
    """Span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        else:
            self.root_s += dur
            parent = None
        if self.calls[name] <= SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent))

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _iter_primes_wrapper(self, fn):
        # A generator does its work on each resume, inside whichever span
        # consumes it, so every resume is its own child span.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters["primes.iter_primes.calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                self.enter("primes.iter_primes")
                try:
                    p = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counters["primes.iter_primes.primes"] += 1
                yield p

        return wrapper

    def _is_prime_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(n):
            if self.parent_name() == "primes.find_prime_in_ap":
                self.counters["primes.find_prime_in_ap.candidates"] += 1
            self.enter("primes.is_prime." + bit_bucket(n))
            try:
                result = fn(n)
            finally:
                self.exit()
            if result:
                self.counters["primes.is_prime.accepted"] += 1
            return result

        return wrapper

    def _crt_wrapper(self, fn):
        inner = self._span_wrapper("primes.crt_solve", fn)

        @functools.wraps(fn)
        def wrapper(congruences):
            x, modulus = inner(congruences)
            self.counters["primes.crt_solve.modulus_bits"] += modulus.bit_length()
            return x, modulus

        return wrapper

    def _dumps_wrapper(self, fn):
        inner = self._span_wrapper("traceio.dumps_canonical", fn)

        @functools.wraps(fn)
        def wrapper(doc):
            text = inner(doc)
            self.counters["traceio.bytes"] += len(text.encode("utf-8"))
            return text

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters[key] += 1
            return fn(*args)

        return wrapper

    def _make_wrapper(self, module: str, name: str, fn):
        special = {
            ("primes", "iter_primes"): self._iter_primes_wrapper,
            ("primes", "is_prime"): self._is_prime_wrapper,
            ("primes", "crt_solve"): self._crt_wrapper,
            ("traceio", "dumps_canonical"): self._dumps_wrapper,
        }
        if (module, name) in special:
            return special[(module, name)](fn)
        return self._span_wrapper(f"{module}.{name}", fn)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every target under each name a splitlab module holds it by."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for module, name in SPAN_TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
            wrappers[id(fn)] = self._make_wrapper(module, name, fn)
        for module, name in COUNT_TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
            wrappers[id(fn)] = self._count_wrapper(f"{module}.{name}.calls", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
