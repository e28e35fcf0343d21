"""The ``c`` kernel backend: lazily cc-compiled CSR kernels via ctypes.

The default backend routes the batch-op surface (and the sealed matcher's
search loop, see :mod:`repro.kernels.native_match`) to a small C library,
:file:`_native.c`, compiled on first use with the system ``cc`` and cached
as a shared object keyed by ``blake2b(source + compiler version)`` under a
per-user cache directory.  The cache write is an atomic :func:`os.replace`,
so any number of workers can race the first compile; whoever finishes last
wins and everyone loads an identical artifact.  ``GCARE_NATIVE_CACHE``
overrides the cache directory (read-only homes, hermetic CI).

Everything degrades, never errors: no toolchain, a failed compile, or an
ABI mismatch make :func:`load` return ``None`` and the backend machinery
falls back to pure Python with a :func:`repro.kernels.fallback_note`.

Data crosses the boundary zero-copy.  Sealed graphs expose their CSR
arenas either as ``array('q')`` (local seals — ``buffer_info()`` gives the
address) or as read-only ``memoryview`` slices of a ``/dev/shm`` mapping
(attached seals — pinned via the buffer protocol).  Results come back as
:class:`NativeView`, a tiny int64 sequence over library-owned or
arena-owned memory that downstream kernels slice without copying.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import random
import shutil
import subprocess
import tempfile
from array import array
from hashlib import blake2b
from pathlib import Path

ABI_VERSION = 1

_SOURCE = Path(__file__).with_name("_native.c")

# Scalar randrange costs ~0.4us/draw; the getstate/setstate round trip for
# the native stream costs ~15us flat, so only batches >= this go native.
NATIVE_DRAW_MIN = 64

_i64 = ctypes.c_int64
_i64p = ctypes.POINTER(ctypes.c_int64)
_u8p = ctypes.POINTER(ctypes.c_ubyte)
_u32p = ctypes.POINTER(ctypes.c_uint32)

# load() memo: (compiler, cache_dir) -> NativeLib | None.  A module-level
# dict (not functools.cache) so tests can reset it between env tweaks.
_loaded: dict[tuple[str, str], "NativeLib | None"] = {}
_fallback_reason: str | None = None

# front cache for load(): raw env triple -> result.  load() sits on the
# kernel dispatch hot path (every get_native() call), and resolving the
# compiler (shutil.which) + cache dir (pathlib) first would cost more
# than the kernel itself; two os.environ reads make the repeat call flat
_fast_key: "tuple[str | None, str | None, str | None] | None" = None
_fast_lib: "NativeLib | None" = None


def reset_for_tests() -> None:
    """Forget cached load results (tests flip GCARE_CC / cache dirs)."""

    _loaded.clear()
    global _fallback_reason, _fast_key, _fast_lib
    _fallback_reason = None
    _fast_key = None
    _fast_lib = None
    from . import backend

    backend._invalidate()


def fallback_reason() -> str | None:
    """Why the last load attempt failed, or None if it never failed."""

    return _fallback_reason


def _find_compiler() -> str | None:
    override = os.environ.get("GCARE_CC")
    if override:
        return override
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    override = os.environ.get("GCARE_NATIVE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "gcare-kernels"


def _source_digest(source: bytes, compiler: str) -> str:
    try:
        version = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            timeout=30,
        ).stdout.splitlines()[:1]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = [b"unknown"]
    h = blake2b(digest_size=16)
    h.update(source)
    h.update(b"\x00")
    h.update(version[0] if version else b"unknown")
    h.update(b"\x00abi=%d" % ABI_VERSION)
    return h.hexdigest()


def _compile(compiler: str, source_path: Path, out_path: Path) -> bool:
    """Compile to a temp file, then atomically publish at ``out_path``."""

    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(out_path.parent), prefix=out_path.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [
                compiler,
                "-O2",
                "-shared",
                "-fPIC",
                "-o",
                tmp,
                str(source_path),
            ],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, out_path)  # atomic: concurrent compiles race safely
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _cleanup_stale(directory: Path, keep: str) -> None:
    """Drop shared objects left behind by older sources/compilers."""

    try:
        entries = list(directory.glob("gcare_native_*.so"))
    except OSError:
        return
    for path in entries:
        if path.name != keep:
            try:
                path.unlink()
            except OSError:
                pass


class NativeLib:
    """A loaded ``_native`` shared object with typed entry points."""

    def __init__(self, cdll: ctypes.CDLL, so_path: Path) -> None:
        self._cdll = cdll
        self.so_path = so_path
        self._bind()

    def _bind(self) -> None:
        lib = self._cdll
        lib.gc_abi_version.restype = _i64
        lib.gc_abi_version.argtypes = ()
        lib.gc_intersect_sorted.restype = _i64
        lib.gc_intersect_sorted.argtypes = (_i64p, _i64, _i64p, _i64, _i64p)
        lib.gc_filter_members.restype = _i64
        lib.gc_filter_members.argtypes = (_i64p, _i64, _i64p, _i64, _i64p)
        lib.gc_count_members.restype = _i64
        lib.gc_count_members.argtypes = (_i64p, _i64, _i64p, _i64)
        lib.gc_filter_members_multi.restype = _i64
        lib.gc_filter_members_multi.argtypes = (
            _i64p,
            _i64,
            ctypes.POINTER(_i64p),
            _i64p,
            _i64,
            _i64p,
        )
        lib.gc_filter_pairs.restype = _i64
        lib.gc_filter_pairs.argtypes = (
            _i64p,
            _i64p,
            _i64,
            _i64p,
            _i64,
            _i64p,
            _i64,
            _i64p,
        )
        lib.gc_pack_bits.restype = None
        lib.gc_pack_bits.argtypes = (_i64p, _i64, ctypes.c_char_p)
        lib.gc_bits_to_list.restype = _i64
        lib.gc_bits_to_list.argtypes = (ctypes.c_char_p, _i64, _i64p)
        lib.gc_interleave.restype = None
        lib.gc_interleave.argtypes = (_i64p, _i64p, _i64, _i64p)
        lib.gc_build_mask.restype = None
        lib.gc_build_mask.argtypes = (_i64p, _i64, ctypes.c_char_p)
        lib.gc_draw_indices.restype = _i64
        lib.gc_draw_indices.argtypes = (_u32p, _i64p, _i64, _i64, _i64p)
        lib.gc_match.restype = ctypes.c_int
        lib.gc_match.argtypes = (
            ctypes.POINTER(_i64p),  # csr_bufs[10]
            _i64,  # n_data
            _i64,  # nq
            _i64p,  # plan_flat
            _i64,  # n_plans
            _i64p,  # cons_flat
            ctypes.POINTER(_u8p),  # mask_ptrs
            ctypes.POINTER(_i64p),  # static_ptrs
            _i64p,  # static_lens
            _i64p,  # depth_flat
            _i64p,  # sep_flat
            _i64p,  # leaf_plan
            _i64,  # cap
            ctypes.c_double,  # time_limit
            _i64p,  # out[3]
        )

    def __getattr__(self, name: str):
        return getattr(self._cdll, name)


def load() -> NativeLib | None:
    """Compile-if-needed and load the native library; None on any failure."""

    global _fallback_reason, _fast_key, _fast_lib
    env_key = (
        os.environ.get("GCARE_CC"),
        os.environ.get("GCARE_NATIVE_CACHE"),
        os.environ.get("XDG_CACHE_HOME"),
    )
    if env_key == _fast_key:
        return _fast_lib
    compiler = _find_compiler()
    directory = cache_dir()
    key = (compiler or "", str(directory))
    if key in _loaded:
        _fast_key, _fast_lib = env_key, _loaded[key]
        return _fast_lib
    lib = None
    if compiler is None:
        _fallback_reason = "no C compiler on PATH (cc/gcc/clang)"
    else:
        try:
            source = _SOURCE.read_bytes()
        except OSError:
            source = None
            _fallback_reason = "native kernel source missing"
        if source is not None:
            digest = _source_digest(source, compiler)
            so_path = directory / f"gcare_native_{digest}.so"
            ok = so_path.exists()
            if not ok:
                ok = _compile(compiler, _SOURCE, so_path)
                if ok:
                    _cleanup_stale(directory, so_path.name)
                else:
                    _fallback_reason = (
                        f"native kernel compile failed ({compiler})"
                    )
            if ok:
                try:
                    cdll = ctypes.CDLL(str(so_path))
                    candidate = NativeLib(cdll, so_path)
                    if candidate.gc_abi_version() == ABI_VERSION:
                        lib = candidate
                    else:
                        _fallback_reason = "native kernel ABI mismatch"
                except OSError:
                    _fallback_reason = "native kernel load failed"
    _loaded[key] = lib
    _fast_key, _fast_lib = env_key, lib
    return lib


# --------------------------------------------------------------------
# zero-copy buffer access
# --------------------------------------------------------------------


class _PyBuffer(ctypes.Structure):
    # CPython's Py_buffer; `obj` stays a raw pointer so ctypes never
    # touches its refcount (PyBuffer_Release owns the decref).
    _fields_ = [
        ("buf", ctypes.c_void_p),
        ("obj", ctypes.c_void_p),
        ("len", ctypes.c_ssize_t),
        ("itemsize", ctypes.c_ssize_t),
        ("readonly", ctypes.c_int),
        ("ndim", ctypes.c_int),
        ("format", ctypes.c_char_p),
        ("shape", ctypes.c_void_p),
        ("strides", ctypes.c_void_p),
        ("suboffsets", ctypes.c_void_p),
        ("internal", ctypes.c_void_p),
    ]


ctypes.pythonapi.PyObject_GetBuffer.restype = ctypes.c_int
ctypes.pythonapi.PyObject_GetBuffer.argtypes = (
    ctypes.py_object,
    ctypes.POINTER(_PyBuffer),
    ctypes.c_int,
)
ctypes.pythonapi.PyBuffer_Release.restype = None
ctypes.pythonapi.PyBuffer_Release.argtypes = (ctypes.POINTER(_PyBuffer),)


class _PinnedBuffer:
    """Pins any buffer-protocol object and exposes its base address."""

    __slots__ = ("_raw", "addr", "nbytes", "_released")

    def __init__(self, obj) -> None:
        self._raw = _PyBuffer()
        self._released = True
        if ctypes.pythonapi.PyObject_GetBuffer(
            obj, ctypes.byref(self._raw), 0
        ) != 0:
            raise BufferError(f"cannot pin buffer of {type(obj)!r}")
        self._released = False
        self.addr = self._raw.buf
        self.nbytes = self._raw.len

    def release(self) -> None:
        if not self._released:
            self._released = True
            ctypes.pythonapi.PyBuffer_Release(ctypes.byref(self._raw))

    def __del__(self) -> None:  # pragma: no cover - destructor timing
        self.release()


class NativeView:
    """A read-only int64 sequence over borrowed memory.

    The view type handed out by :mod:`repro.kernels.views`: downstream
    code lens over CSR arenas and kernel outputs without copying.
    ``_keep`` anchors whatever owns the memory (an ``array('q')``, a
    pinned shm buffer, a sealed graph).
    """

    __slots__ = ("addr", "n", "_keep")

    def __init__(self, addr: int, n: int, keep=None) -> None:
        self.addr = addr
        self.n = n
        self._keep = keep

    @classmethod
    def from_array(cls, arr: array) -> "NativeView":
        addr, n = arr.buffer_info()
        return cls(addr, n, keep=arr)

    @classmethod
    def from_buffer(cls, obj) -> "NativeView":
        pin = _PinnedBuffer(obj)
        if pin.nbytes % 8:
            pin.release()
            raise ValueError("buffer length is not a multiple of 8")
        return cls(pin.addr, pin.nbytes // 8, keep=pin)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self.n)
            if step != 1:
                return self.tolist()[idx]
            return NativeView(
                self.addr + 8 * start, max(0, stop - start), keep=self._keep
            )
        if idx < 0:
            idx += self.n
        if not 0 <= idx < self.n:
            raise IndexError(idx)
        return ctypes.c_int64.from_address(self.addr + 8 * idx).value

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self) -> list:
        if not self.n:
            return []
        return array("q", ctypes.string_at(self.addr, 8 * self.n)).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NativeView(n={self.n})"


def _as_view(values) -> NativeView:
    """Coerce anything list-like into a NativeView (copying if needed)."""

    if isinstance(values, NativeView):
        return values
    if isinstance(values, array) and values.typecode == "q":
        return NativeView.from_array(values)
    if isinstance(values, memoryview):
        return NativeView.from_buffer(values)
    return NativeView.from_array(array("q", values))


def _out_array(n: int) -> tuple[array, _i64p]:
    arr = array("q", bytes(8 * max(n, 1)))
    addr, _ = arr.buffer_info()
    return arr, ctypes.cast(addr, _i64p)


def _ptr(view: NativeView) -> _i64p:
    return ctypes.cast(view.addr, _i64p)


_EMPTY = NativeView(0, 0)


def _member_view(member_set, member_arr) -> NativeView:
    """A sorted int64 domain from whatever the caller has on hand."""

    if member_arr is not None:
        return _as_view(member_arr)
    if not member_set:
        return _EMPTY
    return NativeView.from_array(array("q", sorted(member_set)))


# --------------------------------------------------------------------
# batch-op twins (dispatched from repro.kernels.ops on the c backend)
# --------------------------------------------------------------------


def intersect_sorted(lib: NativeLib, a, b) -> list:
    va, vb = _as_view(a), _as_view(b)
    out, out_p = _out_array(min(va.n, vb.n))
    k = lib.gc_intersect_sorted(_ptr(va), va.n, _ptr(vb), vb.n, out_p)
    return out[:k].tolist()


def filter_members(lib: NativeLib, values, member_set, member_arr) -> list:
    vv = _as_view(values)
    vm = _member_view(member_set, member_arr)
    if not vm.n:
        return []
    out, out_p = _out_array(vv.n)
    k = lib.gc_filter_members(_ptr(vv), vv.n, _ptr(vm), vm.n, out_p)
    return out[:k].tolist()


def count_members(lib: NativeLib, values, member_set, member_arr) -> int:
    vv = _as_view(values)
    vm = _member_view(member_set, member_arr)
    if not vm.n:
        return 0
    return lib.gc_count_members(_ptr(vv), vv.n, _ptr(vm), vm.n)


def filter_members_multi(
    lib: NativeLib, values, member_sets, member_arrs
) -> list:
    vv = _as_view(values)
    if member_arrs is None:
        member_arrs = [None] * len(member_sets)
    views = [
        _member_view(ms, arr) for ms, arr in zip(member_sets, member_arrs)
    ]
    if any(not v.n for v in views):
        return []
    n = len(views)
    arrs = (_i64p * n)(*[_ptr(v) for v in views])
    lens = (ctypes.c_int64 * n)(*[v.n for v in views])
    out, out_p = _out_array(vv.n)
    k = lib.gc_filter_members_multi(
        _ptr(vv), vv.n, arrs, ctypes.cast(lens, _i64p), n, out_p
    )
    return out[:k].tolist()


def filter_pairs(
    lib: NativeLib, pairs, src_set, dst_set, arrays, src_arr, dst_arr
) -> list:
    if arrays is not None:
        vsrc, vdst = _as_view(arrays[0]), _as_view(arrays[1])
    else:
        pairs = list(pairs)
        vsrc = _as_view(array("q", (p[0] for p in pairs)))
        vdst = _as_view(array("q", (p[1] for p in pairs)))
    n = vsrc.n
    if src_set is None:
        ms, ns = _EMPTY, -1
    else:
        ms = _member_view(src_set, src_arr)
        ns = ms.n
    if dst_set is None:
        md, nd = _EMPTY, -1
    else:
        md = _member_view(dst_set, dst_arr)
        nd = md.n
    out, out_p = _out_array(2 * n)
    k = lib.gc_filter_pairs(
        _ptr(vsrc), _ptr(vdst), n, _ptr(ms), ns, _ptr(md), nd, out_p
    )
    flat = out[: 2 * k].tolist()
    return list(zip(flat[0::2], flat[1::2]))


def pack_bits(lib: NativeLib, values, nbits: int, values_arr) -> int:
    vv = _as_view(values_arr if values_arr is not None else values)
    nbytes = (nbits + 7) // 8
    buf = bytearray(nbytes)
    lib.gc_pack_bits(
        _ptr(vv), vv.n, (ctypes.c_char * nbytes).from_buffer(buf)
    )
    return int.from_bytes(buf, "little")


def bits_to_list(lib: NativeLib, bits: int, nbits: int | None) -> list:
    if bits <= 0:
        return []
    nbytes = (
        (nbits + 7) // 8 if nbits is not None else (bits.bit_length() + 7) // 8
    )
    raw = bits.to_bytes(nbytes, "little")
    out, out_p = _out_array(bits.bit_count())
    k = lib.gc_bits_to_list(raw, nbytes, out_p)
    return out[:k].tolist()


def interleave_pairs(lib: NativeLib, pairs, arrays) -> array:
    if arrays is not None:
        vsrc, vdst = _as_view(arrays[0]), _as_view(arrays[1])
    else:
        pairs = list(pairs)
        vsrc = _as_view(array("q", (p[0] for p in pairs)))
        vdst = _as_view(array("q", (p[1] for p in pairs)))
    out, out_p = _out_array(2 * vsrc.n)
    lib.gc_interleave(_ptr(vsrc), _ptr(vdst), vsrc.n, out_p)
    del out[2 * vsrc.n :]
    return out


def draw_indices(lib: NativeLib, rng: random.Random, n: int, k: int):
    """k randrange(n) draws, bit-exact with the scalar stream, or None.

    Returns None when the state cannot be replicated safely (subclassed
    Random, n out of the 32-bit rejection-sampling range) — the caller
    falls back to the scalar loop.
    """

    if type(rng) is not random.Random:
        return None
    if not 0 < n <= 0xFFFFFFFF:
        return None
    version, internal, gauss = rng.getstate()
    if version != 3 or len(internal) != 625:
        return None
    words = (ctypes.c_uint32 * 624)(*internal[:624])
    mti = ctypes.c_int64(internal[624])
    out, out_p = _out_array(k)
    lib.gc_draw_indices(words, ctypes.byref(mti), n, k, out_p)
    rng.setstate((version, tuple(words) + (mti.value,), gauss))
    return out[:k].tolist()
