"""Execution engine names, resolved at the wire boundaries.

Two engines run a folded schedule (docs/execution.md):

* ``specialized`` *(default)* — the program's compiled execution plan
  (:mod:`repro.freac.specialize`): fused per-level numpy passes over
  the whole batch, because every in-flight item at a folding step reads
  the same latched LUT configuration row;
* ``reference`` — the scalar per-item loop
  (:meth:`~repro.freac.executor.FoldedExecutor.run`), the ground truth
  the plan must match bit for bit.

Runs the plan cannot represent (flip-flops, ragged streams, trace
collection) degrade to the reference loop and are counted in
``ExecutionStats.engine_fallbacks``.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple, Union

from ..errors import DeviceError


class Engine(str, Enum):
    """An execution engine; a ``str``, so it compares, pickles and
    serialises as its name."""

    specialized = "specialized"
    reference = "reference"

    def __str__(self) -> str:
        return self.value


#: Engine selector values accepted throughout the stack (the default
#: first).
ENGINES: Tuple[str, ...] = tuple(engine.value for engine in Engine)
DEFAULT_ENGINE = Engine.specialized.value

#: Anything the engine boundary accepts: an :class:`Engine`, its name,
#: or None (meaning "the default").
EngineLike = Union[Engine, str, None]


def resolve_engine(engine: EngineLike = None) -> Engine:
    """Normalize ``engine`` to an :class:`Engine`.

    Bare names are accepted at every boundary (CLI flags, serve request
    lines, ``RunRequest``/``JobSpec`` fields) and resolve here.
    """
    if engine is None:
        return Engine(DEFAULT_ENGINE)
    if not isinstance(engine, str):
        raise DeviceError(
            f"engine must be an Engine or a name, not {type(engine).__name__}"
        )
    try:
        return Engine(engine)
    except ValueError:
        raise DeviceError(
            f"unknown execution engine {engine!r}; pick one of {ENGINES}"
        ) from None


def validate_engine(engine: EngineLike) -> str:
    """String boundary: resolve and hand back the canonical name."""
    return resolve_engine(engine).value
