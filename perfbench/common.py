"""Shared plumbing: the checkout layout, hermetic state, provenance.

Everything a run writes goes under one benchmark-owned directory,
``.perfbench_work/<pid>`` at the checkout root, which the run removes
when it ends.  The schedule disk cache (``FREAC_CACHE_DIR``) and the
temporary directory of this process and every child point into it, so
nothing under ``~/.cache`` or ``/tmp`` shifts a result, and a run reads
and writes nothing outside its checkout.  The directory is git-ignored,
so a run leaves ``git status`` unchanged; a run that was killed before
it could clean up leaves its directory behind, and the next run removes
it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

#: The checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_work"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


class GateFailure(Exception):
    """A correctness gate tripped: the program produced a wrong result."""


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/`` tree.

    Raises :class:`BenchmarkError` when the checkout holds no program,
    so the benchmark fails cleanly instead of timing nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """The environment for a child Python that imports ``repro`` and
    ``perfbench`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class WorkDir:
    """The run's private scratch tree, removed on exit.

    Sets ``FREAC_CACHE_DIR`` (schedule disk cache) and ``TMPDIR`` for
    this process and the children it starts; both are restored when the
    context ends.
    """

    def __init__(self) -> None:
        self.path = WORK_BASE / str(os.getpid())
        self._saved: Dict[str, Optional[str]] = {}
        self._saved_tempdir: Optional[str] = None

    def __enter__(self) -> "WorkDir":
        remove_stale_work_dirs()
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        self._set("TMPDIR", str(self.path / "tmp"))
        self._set("FREAC_CACHE_DIR", str(self.fresh("schedules")))
        self._saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.path / "tmp")
        return self

    def __exit__(self, *exc_info: object) -> None:
        tempfile.tempdir = self._saved_tempdir
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_BASE.rmdir()       # only when no other run is using it
        except OSError:
            pass

    def _set(self, key: str, value: str) -> None:
        self._saved.setdefault(key, os.environ.get(key))
        os.environ[key] = value

    def fresh(self, name: str) -> Path:
        """An empty directory ``name`` inside the work tree."""
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def remove_stale_work_dirs() -> None:
    """Remove the work directories of runs whose process has ended."""
    if not WORK_BASE.is_dir():
        return
    for path in WORK_BASE.iterdir():
        if path.name.isdigit() and not pid_alive(int(path.name)):
            shutil.rmtree(path, ignore_errors=True)


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True     # alive, owned by another user
    return True


def source_digest() -> str:
    """sha256 over the program's source files (path + bytes, sorted).

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None     # an enclosing repository, not this checkout
    return lines[1]


def provenance() -> Dict[str, object]:
    """The environment stamp printed with every result."""
    import numpy

    from repro.freac.engine import resolve_engine

    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "default_engine": resolve_engine(None).name,
    }


def stop_helper_processes() -> None:
    """Stop, and wait for, every process this run started.

    A gateway's shards are ``multiprocessing`` *spawn* children, and the
    first spawn also starts ``multiprocessing``'s resource tracker, a
    helper that otherwise outlives this process until it notices the
    closed pipe.  Shards still alive are terminated and joined; the
    tracker is told to exit and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        tracker._stop()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (and optionally its waited-for
    children), in MiB; Linux reports ``ru_maxrss`` in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0
