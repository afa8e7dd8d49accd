"""Build the C kernels once per machine and load them with ctypes.

``load`` compiles a C source with the system compiler into a shared
library and caches it in ``<tempdir>/spikecl-<uid>/``, a directory only
the current user may use.  The file is named by a digest of the source,
the compile command and the host CPU, so a warm load reads and hashes
the source, tests for one file and opens it.  A build is written under
a private temporary name and published by an atomic rename: a process
never loads a file another one is still writing, and a build that died
leaves only a name that is never loaded.

The flags keep double arithmetic exactly as written: -ffp-contract=off
forbids fused multiply-adds and no fast-math flag lets the compiler
reassociate or flush subnormals.  -fno-math-errno only stops ``sqrt``
from setting errno, which lets it vectorize.  -march=native is why the
CPU is part of the digest, and it pays: without it, gcc 12.2 on an
AVX-512 Xeon made the forward kernel 12-16x slower at 128x128, T=10
(843-919 against 55-70 us a call) and 3.4x at 16x64, and the backward
kernel and Adam 1.1-1.4x (minimum of 7 repeats of 2,000 calls).
"""

import ctypes
import hashlib
import os
import platform
import stat
import tempfile

FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
         "-std=c99", "-shared", "-fPIC")
# the source is piped in, so what is compiled is exactly what was hashed
COMMAND = ("cc", *FLAGS, "-x", "c", "-", "-lm")
BUILD_TIMEOUT_S = 300

# the /proc/cpuinfo fields of the first CPU that name its model and its
# instruction set (x86, then Arm); clock and core numbering are left out
_CPU_FIELDS = ("vendor_id", "cpu family", "model", "model name", "stepping",
               "flags", "Features", "CPU implementer", "CPU architecture",
               "CPU variant", "CPU part", "CPU revision")


class BuildError(ImportError):
    """The kernel library could not be built or its cache cannot be used."""


def cpu_id():
    """The host CPU's model and instruction set, as text."""
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo", encoding="utf-8",
                  errors="replace") as cpuinfo:
            for line in cpuinfo:
                if not line.strip():
                    break  # the end of the first CPU's block
                if line.split(":", 1)[0].strip() in _CPU_FIELDS:
                    lines.append(line.strip())
    except OSError:
        lines.append(platform.processor())
    return "\n".join(lines)


def cache_dir():
    """The per-user cache directory, created with mode 0700.

    A directory that is a symlink, another user's, or open to others is
    refused: a library loaded from it could have been planted.
    """
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"spikecl-{uid}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.lstat(path)
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != uid
            or st.st_mode & 0o077):
        raise BuildError(
            f"{path} must be a directory owned by uid {uid} with mode 0700 "
            f"(found mode {stat.filemode(st.st_mode)}, uid {st.st_uid}); "
            f"remove it and import again"
        )
    return path


def library_path(code):
    """Where the library built from source bytes ``code`` is cached."""
    key = b"\0".join((code, " ".join(COMMAND).encode(), cpu_id().encode()))
    digest = hashlib.sha256(key).hexdigest()[:32]
    return os.path.join(cache_dir(), f"_kernels-{digest}.so")


def _compile(code, path):
    """Compile ``code`` to ``path``: to a temporary name, then renamed."""
    import subprocess  # here, so that a warm import does not pay for it

    fd, part = tempfile.mkstemp(prefix=".part-", suffix=".so",
                                dir=os.path.dirname(path))
    os.close(fd)
    command = " ".join((*COMMAND, "-o", part))
    try:
        try:
            done = subprocess.run(
                (*COMMAND, "-o", part), input=code, capture_output=True,
                timeout=BUILD_TIMEOUT_S,
            )
        except OSError as err:
            raise BuildError(
                f"cannot build the spikecl kernels: `{command}` could not "
                f"start ({err}); a C compiler named {COMMAND[0]!r} is needed"
            ) from err
        except subprocess.TimeoutExpired as err:
            raise BuildError(f"`{command}` did not finish within "
                             f"{BUILD_TIMEOUT_S} s") from err
        if done.returncode != 0:
            raise BuildError(
                f"cannot build the spikecl kernels: `{command}` failed with "
                f"exit status {done.returncode}:\n"
                f"{done.stderr.decode(errors='replace')}"
            )
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.unlink(part)


def load(source):
    """The library built from the C file ``source``, built if not cached."""
    with open(source, "rb") as f:
        code = f.read()
    path = library_path(code)
    if not os.path.exists(path):
        _compile(code, path)
    return ctypes.CDLL(path)
