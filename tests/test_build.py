"""The kernel library's build and cache: cold and warm loads, a failing
or missing compiler, partial files, the cache directory's permissions,
and the flags that keep the arithmetic exact."""

import ctypes
import os
import stat
import subprocess
import tempfile

import numpy as np
import pytest

from spikecl import _build, kernels

SOURCE = os.path.join(os.path.dirname(kernels.__file__), "_kernels.c")


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    """A fresh temporary directory as ``tempfile.gettempdir()``; returns
    the cache directory ``load`` will use under it."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path / f"spikecl-{os.getuid()}"


def _code():
    with open(SOURCE, "rb") as f:
        return f.read()


def _adam_one(lib):
    """One Adam step of one parameter (w1's only entry; b1, w2 and b2
    empty) through ``lib``; returns the delta."""
    fn = lib.adam_apply
    fn.argtypes = (ctypes.c_void_p,) * 4 + \
        (ctypes.c_void_p, ctypes.c_ssize_t) * 4 + (ctypes.c_double,) * 6
    fn.restype = ctypes.c_int
    grad, m, v, delta = np.array([0.5]), np.zeros(1), np.zeros(1), np.empty(1)
    w1 = np.zeros(1)
    status = fn(grad.ctypes.data, m.ctypes.data, v.ctypes.data,
                delta.ctypes.data, w1.ctypes.data, 1, None, 0, None, 0, None,
                0, 0.9, 0.999, 1e-8, -1e-3, 1.0 - 0.9, 1.0 - 0.999)
    assert status == 0 and w1[0] == delta[0]
    return delta[0]


def test_a_cold_build_into_an_empty_cache_works(tmp_cache):
    lib = _build.load(SOURCE)
    built = os.listdir(tmp_cache)
    assert built == [os.path.basename(_build.library_path(_code()))]
    assert lib._name == str(tmp_cache / built[0])
    # bias correction cancels on the first step: the delta is -lr
    assert _adam_one(lib) == pytest.approx(-1e-3, rel=1e-6)
    # another source is another library
    assert _build.library_path(_code() + b"\n") != lib._name


def test_a_warm_load_runs_no_compiler(monkeypatch):
    # importing spikecl built or found the library in the default cache
    assert os.path.exists(_build.library_path(_code()))

    def no_compiler(*args, **kwargs):
        raise AssertionError("a warm load ran the compiler")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _build.load(SOURCE)._name == _build.library_path(_code())


def test_a_failing_compiler_names_the_command_and_its_stderr(tmp_cache,
                                                             tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("int spikecl_broken = ;\n")
    with pytest.raises(_build.BuildError) as err:
        _build.load(str(broken))
    message = str(err.value)
    assert " ".join(_build.COMMAND) in message
    assert "exit status" in message and "error" in message
    assert os.listdir(tmp_cache) == []  # the partial output was removed


def test_a_missing_compiler_names_the_command(tmp_cache, monkeypatch):
    command = ("spikecl-no-such-cc",) + _build.COMMAND[1:]
    monkeypatch.setattr(_build, "COMMAND", command)
    with pytest.raises(_build.BuildError, match="spikecl-no-such-cc -O3"):
        _build.load(SOURCE)
    assert issubclass(_build.BuildError, ImportError)


def test_a_partial_file_is_never_loaded(tmp_cache, monkeypatch):
    path = _build.library_path(_code())  # creates the cache directory
    # a build that died before its rename left its temporary file
    (tmp_cache / ".part-died.so").write_bytes(b"not a library")

    real_run = subprocess.run

    def dies_half_way(command, **kwargs):
        out = command[command.index("-o") + 1]
        with open(out, "wb") as f:
            f.write(b"\x7fELF half a library")
        return subprocess.CompletedProcess(command, 1, b"", b"killed")

    monkeypatch.setattr(subprocess, "run", dies_half_way)
    with pytest.raises(_build.BuildError, match="killed"):
        _build.load(SOURCE)
    assert not os.path.exists(path)
    assert os.listdir(tmp_cache) == [".part-died.so"]

    monkeypatch.setattr(subprocess, "run", real_run)
    lib = _build.load(SOURCE)
    assert lib._name == path and _adam_one(lib) < 0.0


def test_the_cache_directory_is_private_to_the_user(tmp_cache):
    path = _build.cache_dir()
    assert path == str(tmp_cache)
    st = os.lstat(path)
    assert stat.S_ISDIR(st.st_mode)
    assert stat.S_IMODE(st.st_mode) == 0o700
    assert st.st_uid == os.getuid()


@pytest.mark.parametrize("planted", ["open", "symlink"])
def test_a_cache_directory_others_could_write_is_refused(tmp_cache, tmp_path,
                                                        planted):
    if planted == "open":
        tmp_cache.mkdir(mode=0o700)
        tmp_cache.chmod(0o777)
    else:
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        tmp_cache.symlink_to(tmp_path / "elsewhere")
    with pytest.raises(_build.BuildError, match="mode 0700"):
        _build.load(SOURCE)


def test_the_kernels_compile_without_warnings(tmp_path):
    # the build's own flags, spelled once in _build.COMMAND, plus every
    # warning as an error
    out = tmp_path / "kernels.so"
    done = subprocess.run(
        (*_build.COMMAND, "-Wall", "-Wextra", "-Werror", "-o", str(out)),
        input=_code(), capture_output=True, timeout=_build.BUILD_TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stderr == b""
    assert out.stat().st_size > 0


def test_the_flags_keep_ieee_arithmetic():
    assert "-ffp-contract=off" in _build.FLAGS
    forbidden = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                 "-fassociative-math")
    for flag in _build.COMMAND:
        assert not flag.startswith(forbidden), flag
    assert _build.COMMAND[1:1 + len(_build.FLAGS)] == _build.FLAGS
