"""Episode traces: JSON-lines with run-length-encoded frames.

First line is a header record carrying everything needed to replay the
episode (configs, model spec, episode seed); each following line is one step:

    {"t", "agent_pos", "action", "reward", "outcome", "frame_rle"}

``frame_rle`` encodes the post-step palette frame row-major as
"value:count,value:count,...". The kernel (``_world.c``) encodes and decodes
it; the decoder checks a line as a whole before it decodes it and points to
its first bad token, and this module names that token or the size in the
``ValueError``. ``write_trace`` writes through ``fileio``'s atomic write. ``read_trace`` checks every line against this
schema (the header's configs and model spec included), and the lines against
each other (step t runs 1..n, only the last step may end the episode, the
header outcome is the last step's or ``running`` without steps), and names
the offending ``path:line`` in its ``ValueError``. Its steps are the ``StepRecord``s of the
``EpisodeRecord.trace`` that was written, with each step's ``frame_rle``
kept beside them for ``Trace.frame_at``.
"""
from __future__ import annotations

import ctypes
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    mcts_config_from_dict,
    mcts_config_to_dict,
    world_config_from_dict,
    world_config_to_dict,
)
from .fileio import atomic_write_text
from .harness import EpisodeRecord, StepRecord
from .kernel import BAD_RLE_GRAMMAR, RLE_ROOM, library, zeroed
from .mcts import MCTSConfig
from .models import model_label
from .world import DIED, GOAL, GOAL_REACHED, N_ACTIONS, RUNNING, TIMED_OUT, WorldConfig, finite

_encode, _decode = library.lanenav_frame_to_rle, library.lanenav_rle_to_frame


def frame_to_rle(frame: np.ndarray) -> str:
    """The RLE text of a palette frame (uint8), encoded in the kernel."""
    if frame.dtype != np.uint8:
        raise TypeError(f"frame must be uint8, got {frame.dtype}")
    out = zeroed(RLE_ROOM * frame.size)
    return out[:_encode(frame.tobytes(), frame.size, out)].decode("ascii")


def rle_to_frame(rle: str, grid_h: int, grid_w: int) -> np.ndarray:
    """Decode ``frame_to_rle`` output in the kernel; a bad token raises ValueError naming it.

    The whole line is checked first, token by token: the grammar ``value:count[,value:count...]`` of ASCII
    digits, and each value in 0..GOAL and each count in 0..cells (a number too long for int64 reads as its
    maximum); then the size the counts add up to. Only a line that passes is decoded, so a line of many
    full-grid runs costs its length only.
    """
    cells = grid_h * grid_w
    # Any character outside ASCII fails the grammar; "?" stands in for it, one byte per character, so the
    # kernel's offsets into the text are offsets into rle.
    text, bad = rle.encode("ascii", "replace"), ctypes.c_int64()
    size = _decode(text, len(text), max(cells, -1), None, ctypes.byref(bad))
    if size < 0:
        token = rle[bad.value:].partition(",")[0]
        raise ValueError(f"malformed RLE token {token!r}" if size == BAD_RLE_GRAMMAR else
                         f"bad RLE token {token!r}: value must be 0..{GOAL}, count 0..{cells}")
    if size != cells:
        raise ValueError(f"RLE decodes to {size} cells, expected {cells}")
    out = zeroed(cells)
    _decode(text, len(text), cells, out, ctypes.byref(bad))
    return np.frombuffer(out, dtype=np.uint8).reshape(grid_h, grid_w)


@dataclass
class Trace:
    world_config: WorldConfig
    mcts_config: MCTSConfig
    model_spec: str
    episode_seed: int
    outcome: str
    steps: list[StepRecord]
    frame_rles: list[str]  # the RLE of the frame after each step

    def frame_at(self, index: int) -> np.ndarray:
        cfg = self.world_config
        return rle_to_frame(self.frame_rles[index], cfg.grid_h, cfg.grid_w)


def write_trace(path: str | Path, record: EpisodeRecord) -> None:
    if record.frames is None:
        raise ValueError("record has no frames; run the episode with keep_frames=True")
    header = {
        "kind": "header",
        "episode_seed": record.episode_seed,
        "model": record.model_spec,
        "outcome": record.outcome.kind,
        "world": world_config_to_dict(record.world_config),
        "mcts": mcts_config_to_dict(record.mcts_config),
    }
    lines = [json.dumps(header, sort_keys=True)]
    # frames[0] is the initial frame; frames[i+1] matches trace step i.
    for i, step in enumerate(record.trace):
        lines.append(json.dumps({
            "t": step.t,
            "agent_pos": [step.agent_x, step.agent_y],
            "action": step.action,
            "reward": step.reward,
            "outcome": step.outcome,
            "frame_rle": frame_to_rle(record.frames[i + 1]),
        }, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _finite_number(value) -> bool:
    """A JSON number that converts to a finite float."""
    return type(value) in (int, float) and finite(value)


_OUTCOMES = (RUNNING, GOAL_REACHED, DIED, TIMED_OUT)
_OUTCOME_CHECK = (lambda v: v in _OUTCOMES, f"one of {', '.join(_OUTCOMES)}")
# (field, check, what the check wants) per header and per step record.
_HEADER_FIELDS = (
    ("episode_seed", lambda v: type(v) is int, "an integer"),
    ("model", lambda v: type(v) is str, "a string"),
    ("outcome", *_OUTCOME_CHECK),
    ("world", lambda v: type(v) is dict, "an object"),
    ("mcts", lambda v: type(v) is dict, "an object"),
)
_STEP_FIELDS = (
    ("t", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    ("agent_pos", lambda v: type(v) is list and len(v) == 2 and all(map(_finite_number, v)),
     "a list of 2 finite numbers"),
    ("action", lambda v: type(v) is int and 0 <= v < N_ACTIONS, f"an integer in 0..{N_ACTIONS - 1}"),
    ("reward", _finite_number, "a finite number"),
    ("outcome", *_OUTCOME_CHECK),
    ("frame_rle", lambda v: type(v) is str, "a string"),
)


def _json_object(path, number: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}:{number}: malformed JSON: {exc}") from None
    if type(record) is not dict:
        raise ValueError(f"{path}:{number}: expected a JSON object")
    return record


def _checked(path, number: int, record: dict, fields: tuple) -> dict:
    for key, check, wanted in fields:
        if key not in record:
            raise ValueError(f"{path}:{number}: missing field {key!r}")
        if not check(record[key]):
            raise ValueError(f"{path}:{number}: field {key!r} must be {wanted}, got {record[key]!r}")
    return record


def _check_sequence(path, outcome: str, steps: list[dict]) -> None:
    """The steps against each other and the header: t runs 1..n, only the last
    step may end the episode, and the header outcome is the last step's."""
    for number, step in enumerate(steps, 2):
        if step["t"] != number - 1:
            raise ValueError(f"{path}:{number}: step t must be {number - 1}, got {step['t']}")
        if step["outcome"] != RUNNING and number - 1 < len(steps):
            raise ValueError(f"{path}:{number}: outcome {step['outcome']!r} ends the episode, "
                             "but later steps follow")
    final = steps[-1]["outcome"] if steps else RUNNING
    if outcome != final:
        raise ValueError(f"{path}:1: header outcome {outcome!r} does not match the last step's {final!r}")


def read_trace(path: str | Path) -> Trace:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty trace")
    header = _json_object(path, 1, lines[0])
    if header.get("kind") != "header":
        raise ValueError(f"{path}:1: first line is not a trace header")
    _checked(path, 1, header, _HEADER_FIELDS)
    try:
        world_config = world_config_from_dict(header["world"])
        mcts_config = mcts_config_from_dict(header["mcts"])
        model_label(header["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:1: bad config in header: {exc!r}") from None
    steps = [_checked(path, number, _json_object(path, number, line), _STEP_FIELDS)
             for number, line in enumerate(lines[1:], 2)]
    _check_sequence(path, header["outcome"], steps)
    return Trace(
        world_config=world_config,
        mcts_config=mcts_config,
        model_spec=header["model"],
        episode_seed=header["episode_seed"],
        outcome=header["outcome"],
        steps=[StepRecord(s["t"], float(s["agent_pos"][0]), float(s["agent_pos"][1]), s["action"],
                          float(s["reward"]), s["outcome"]) for s in steps],
        frame_rles=[s["frame_rle"] for s in steps],
    )
