"""Trace persistence: compressed npz (fast path) and jsonl (interchange).

The jsonl format mirrors the event records the paper describes collecting
("input prompt, configurations, LLM response, calling step, and caller's
identity" — here token counts stand in for the text), one JSON object per
call event, plus a header object and a movement record per agent.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import TraceError
from .schema import Trace, TraceMeta, _alloc_positions

#: The arrays every npz trace holds. Files from before the step-major
#: store kept agent-major ``positions`` instead of ``positions_sa``:
#: they are refused by that name (``cached_day_trace`` regenerates).
_NPZ_ARRAYS = ("meta", "positions_sa", "call_step", "call_agent",
               "call_func", "call_in", "call_out")


def _meta(fields: dict, where: str) -> TraceMeta:
    """The header's :class:`TraceMeta`, or a TraceError naming it."""
    try:
        return TraceMeta(**fields)
    except TypeError as exc:
        raise TraceError(f"{where}: bad trace header: {exc}") from None


def _savez(fh, **arrays) -> None:
    """``np.savez_compressed`` at zlib level 1. Every cold set-up writes
    each segment it simulates: a 25-agent segment to the end of the
    busy hour takes ≈11 ms on a 2-core x86 container, ≈50 ms at the
    default level, for a file about a fifth larger."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED,
                         compresslevel=1) as archive:
        for name, value in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.asanyarray(value),
                                          allow_pickle=False)


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as compressed npz — to a temp file beside ``path``,
    then renamed, so no reader ever finds a truncated file there.

    The file names its generator: ``generator_version`` (the
    ``GENERATOR_VERSION`` that wrote it) and ``fingerprint``
    (:func:`~repro.trace.generator.trace_fingerprint` of its arrays),
    which :func:`load_trace` checks.
    """
    # Lazy: the generator module imports this one.
    from .generator import GENERATOR_VERSION, trace_fingerprint

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            _savez(
                fh, meta=json.dumps(asdict(trace.meta)),
                positions_sa=trace.positions_by_step,
                call_step=trace.call_step, call_agent=trace.call_agent,
                call_func=trace.call_func, call_in=trace.call_in,
                call_out=trace.call_out, generator_version=GENERATOR_VERSION,
                fingerprint=trace_fingerprint(trace))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`.

    A :class:`TraceError` names ``generator_version`` when the file was
    written by another generator version, and ``fingerprint`` when its
    arrays no longer hash to the fingerprint stored beside them. Files
    written before either field existed load unchecked.
    """
    from .generator import GENERATOR_VERSION, trace_fingerprint

    path = Path(path)
    if not path.exists():
        raise TraceError(f"no trace at {path}")
    with np.load(path, allow_pickle=False) as data:
        missing = [name for name in _NPZ_ARRAYS if name not in data.files]
        if missing:
            raise TraceError(f"{path}: npz trace lacks {missing}")
        meta = _meta(json.loads(str(data["meta"])), str(path))
        if "generator_version" in data.files:
            version = int(data["generator_version"])
            if version != GENERATOR_VERSION:
                raise TraceError(
                    f"{path}: generator_version {version} is not this "
                    f"generator's {GENERATOR_VERSION}")
        stored = str(data["fingerprint"]) \
            if "fingerprint" in data.files else None
        positions = data["positions_sa"]
        # Route big stores through the size-thresholded allocator so a
        # million-agent load lands in the same (possibly memmap-backed)
        # kind of store the generator builds, instead of pinning the
        # decompressed npz array in anonymous RAM.
        backed = _alloc_positions(positions.shape, positions.dtype)
        if isinstance(backed, np.memmap):
            np.copyto(backed, positions)
            positions = backed
        trace = Trace(
            meta, positions,
            data["call_step"], data["call_agent"], data["call_func"],
            data["call_in"], data["call_out"])
    if stored is not None and stored != (actual := trace_fingerprint(trace)):
        raise TraceError(f"{path}: fingerprint {stored} does not match "
                         f"its arrays ({actual})")
    # Graph traces: the coordinate speed check does not apply, so the
    # untrusted boundary re-checks movement in hop distance.
    trace.validate_movement()
    return trace


def export_jsonl(trace: Trace, path: str | Path) -> None:
    """Write the interchange jsonl representation."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "header", **asdict(trace.meta)}) + "\n")
        for aid in range(trace.meta.n_agents):
            fh.write(json.dumps({
                "type": "movement", "agent": aid,
                "path": trace.positions_by_step[:, aid].tolist()}) + "\n")
        for i in range(trace.n_calls):
            fh.write(json.dumps({
                "type": "call",
                "step": int(trace.call_step[i]),
                "agent": int(trace.call_agent[i]),
                "func": trace.func_name(int(trace.call_func[i])),
                "input_tokens": int(trace.call_in[i]),
                "output_tokens": int(trace.call_out[i]),
            }) + "\n")


def import_jsonl(path: str | Path) -> Trace:
    """Read the interchange jsonl representation.

    Every agent needs one movement record whose path holds a position
    for each step boundary; a malformed record raises
    :class:`TraceError` naming its line.
    """
    from ..world.behavior import FUNC_INDEX

    path = Path(path)
    meta = None
    movements: dict[int, tuple[str, list]] = {}
    steps, agents, funcs, ins, outs = [], [], [], [], []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path.name} line {lineno}"
            rec = json.loads(line)
            kind = rec.pop("type", None)
            try:
                if kind == "header":
                    meta = _meta(rec, where)
                elif kind == "movement":
                    movements[rec["agent"]] = (where, rec["path"])
                elif kind == "call":
                    if rec["func"] not in FUNC_INDEX:
                        raise TraceError(
                            f"{where}: unknown func {rec['func']!r}")
                    steps.append(rec["step"])
                    agents.append(rec["agent"])
                    funcs.append(FUNC_INDEX[rec["func"]])
                    ins.append(rec["input_tokens"])
                    outs.append(rec["output_tokens"])
                else:
                    raise TraceError(
                        f"{where}: unknown record type {kind!r}")
            except KeyError as exc:
                raise TraceError(
                    f"{where}: {kind} record lacks {exc}") from None
    if meta is None:
        raise TraceError("jsonl trace missing header record")
    n = meta.n_agents
    shape = (meta.n_steps + 1, 2)
    positions = np.empty((meta.n_steps + 1, n, 2), dtype=np.int32)
    for aid, (where, pos_list) in movements.items():
        if not isinstance(aid, int) or not 0 <= aid < n:
            raise TraceError(
                f"{where}: movement agent {aid!r} outside [0, {n})")
        try:
            row = np.asarray(pos_list, dtype=np.int32)
        except (TypeError, ValueError) as exc:
            raise TraceError(f"{where}: agent {aid}'s path: {exc}") from None
        if row.shape != shape:
            raise TraceError(
                f"{where}: agent {aid}'s path has shape {row.shape}, "
                f"not {shape}")
        positions[:, aid] = row
    missing = sorted(set(range(n)) - movements.keys())
    if missing:
        raise TraceError(
            f"{path.name}: no movement record for agent {missing[0]}")
    trace = Trace(
        meta, positions,
        np.asarray(steps, dtype=np.int32), np.asarray(agents, dtype=np.int32),
        np.asarray(funcs, dtype=np.int16), np.asarray(ins, dtype=np.int32),
        np.asarray(outs, dtype=np.int32))
    trace.validate_movement()
    return trace
