"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
prompts, the same manifest bytes and the same planted labels. The program
under test only ever sees the files written from these values.

The curate-10k input is ten 1,000-record shards, each a complete manifest
with its own plants, so that one measured item (a pipeline pass over one
shard) takes about a second and a run holds tens of them. Every shard
plants, for every record, the outcome each pipeline stage must reach
(reason code, gate decision, duration-dataset skip reason) and, for the
preference stage, the exact (win, lose) pairs. The plants rely
only on the documented selection conventions in `songflow.pipeline`:
linear-interpolation quantiles, strict "<" below a cutoff, and medians over
the full input manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from songflow.conditioning import prompt_spec_to_json
from songflow.lrc import serialize_lrc, serialize_timestamp
from songflow.pipeline import RecordManifest, write_manifest
from songflow.synthetic import default_task, sample_prompt

# -----------------------------------------------------------------------------
# Prompts for the model workloads
# -----------------------------------------------------------------------------


def generate_prompts(seed: int, n: int, T: int, frame_rate: float, d_audio: int = 8):
    """n (prompt JSON, LRC text) pairs of T frames, drawn with `sample_prompt`."""
    task = default_task(T=T, d_audio=d_audio, frame_rate=frame_rate)
    rng = np.random.default_rng([seed, 256])
    out = []
    for _ in range(n):
        spec, doc = sample_prompt(task, rng, max_segments=6, min_width=16)
        out.append((prompt_spec_to_json(spec), serialize_lrc(doc)))
    return out


# -----------------------------------------------------------------------------
# The curate manifest
# -----------------------------------------------------------------------------

N_SHARDS = 10
SHARD_RECORDS = 1_000
METRICS = ("aesthetic", "clarity", "vocal")
QUALITY_BAR = 0.75  # every metric's median over the manifest, by construction
DROP_FRACTION = 0.05  # pipeline.pretrain_drop_fraction default
DPO_MIN_DIFF = 0.1
LYRIC_MAX_DISTANCE = 0.3  # pipeline.lyric_edit_max_distance default

# Lyric/transcript pairs the edit gate must score, per shard. Lengths are
# exact in normalized characters, so the gate does the same number of DP
# cells on every shard and every seed. The song pair is Latin on even shards
# and CJK (with astral-plane characters) on odd ones, "near" on shards 0, 1,
# 4, 5, 8, 9 and "far" on the others.
SONG_PAIRS = 1
SONG_CHARS = (1500, 1400)  # (lyrics, transcript)
VERSE_PAIRS = 3
VERSE_CHARS = (160, 150)
LYRICS_ONLY = 250  # timed lyrics without a transcript: kept, flagged "unverified"

SHARE_SAMPLING_RATE = 0.03  # pretrain "sampling-rate" plants
SHARE_DURATION = 0.03  # pretrain "duration-out-of-range" plants
SHARE_MISSING_SCORE = 0.02  # pretrain/finetune "missing-score" plants
SHARE_MISSING_CAPTION = 0.04  # per kind, among records with timed lyrics

# Disjoint alphabets: a "far" transcript shares no letter with its lyrics.
_NEAR_LATIN = "abcdefghijklm"
_FAR_LATIN = "nopqrstuvwxyz"
_NEAR_CJK = [chr(c) for c in range(0x4E00, 0x4F00)] + ["\U0001D11E", "\U00020001", "\U00020002"]
_FAR_CJK = [chr(c) for c in range(0x6000, 0x6100)] + ["\U0001D122", "\U00020101", "\U00020102"]


@dataclass
class Manifest:
    """The records plus the outcome each stage must reach on them."""

    records: list[RecordManifest]
    score_rows: list[dict]
    pretrain: dict[str, str]  # id -> "kept" or reason code
    finetune: dict[str, str]
    gate: dict[str, str]  # id -> "kept", "kept-unverified" or "edit-distance"
    duration: dict[str, str]  # id -> "emitted" or skip reason
    lrc_lines: dict[str, list[tuple[int, str]]]  # id -> (centiseconds, text)
    dpo_pairs: set[tuple[str, str, str]] = field(default_factory=set)  # (group, win, lose)
    gate_cells: int = 0  # DP cells the edit gate computes

    def write(self, manifest_path, scores_path) -> None:
        write_manifest(self.records, manifest_path)
        with open(scores_path, "w", encoding="utf-8") as fh:
            for row in self.score_rows:
                fh.write(json.dumps(row) + "\n")


def _exact_labels(rng, n: int, counts: dict[str, int], rest: str) -> list[str]:
    labels = [name for name, c in counts.items() for _ in range(c)]
    labels += [rest] * (n - len(labels))
    rng.shuffle(labels)
    return labels


def _text(rng, alphabet, chars: int) -> str:
    """Lowercase words joined by single spaces, exactly `chars` long, with
    no punctuation, so `normalize_lyric_text` leaves it unchanged."""
    symbols = np.array([*alphabet, " "], dtype="<U1")
    lengths = rng.integers(2, 8, size=chars // 2 + 1)  # enough words: each takes >= 3 chars
    idx = rng.integers(0, len(alphabet), size=int(lengths.sum() + len(lengths)))
    idx[np.cumsum(lengths + 1) - 1] = len(alphabet)  # a space after every word
    text = symbols[idx[:chars]].tobytes().decode("utf-32-le")
    if text.endswith(" "):
        text = text[:-1] + alphabet[0]
    return text


def _wrap(text: str, width: int) -> list[str]:
    """Split at spaces into lines of about `width` characters; joining the
    lines with single spaces gives the text back."""
    lines, current = [], ""
    for word in text.split(" "):
        if current and len(current) + 1 + len(word) > width:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}" if current else word
    lines.append(current)
    return lines


def _near(rng, text: str, alphabet, chars: int) -> str:
    """About 3% of letters substituted, then cut to `chars`."""
    out = list(text)
    for i in rng.choice(len(out), size=len(out) // 33, replace=False):
        if out[i] != " ":
            out[i] = alphabet[(alphabet.index(out[i]) + 1) % len(alphabet)]
    cut = "".join(out)[:chars]
    return cut[:-1] + alphabet[0] if cut.endswith(" ") else cut


def _timed_lines(rng, lines: list[str], duration: float) -> list[tuple[int, str]]:
    """Non-decreasing centisecond onsets, every one at least 1 s before the
    record's end, so each LRC stays inside its record's duration."""
    end_cs = int(duration * 100) - 100
    start = int(rng.integers(0, min(1000, end_cs // 4) + 1))
    step = max(1, min(400, (end_cs - start) // max(1, len(lines))))
    return [(start + i * step, line) for i, line in enumerate(lines)]


def _lrc_text(timed: list[tuple[int, str]]) -> str:
    return "".join(f"{serialize_timestamp(cs / 100.0)} {text}\n" for cs, text in timed)


def _percentile_plants(n_survivors: int) -> int:
    """How many of the lowest-scoring survivors `pretrain_filter` drops: the
    ones strictly below the linearly interpolated DROP_FRACTION quantile,
    given distinct scores below every other survivor's."""
    pos = (n_survivors - 1) * DROP_FRACTION
    lo = int(pos)
    return lo + 1 if pos - lo > 0 else lo


def generate_shards(seed: int, n_shards: int = N_SHARDS, n_records: int = SHARD_RECORDS,
                    scale: float = 1.0) -> list[Manifest]:
    """The curate-10k input: `n_shards` manifests of `n_records` each."""
    return [generate_manifest(seed, k, n_records, scale) for k in range(n_shards)]


def generate_manifest(seed: int, shard: int = 0, n_records: int = SHARD_RECORDS,
                      scale: float = 1.0) -> Manifest:
    """One curate-10k shard. `scale` < 1 shrinks the planted lyric lengths
    and the lyric-only records, for smoke runs of the benchmark."""
    rng = np.random.default_rng([seed, 10_000, shard])
    n = n_records
    song_pairs, verse_pairs = SONG_PAIRS, VERSE_PAIRS
    lyrics_only = round(LYRICS_ONLY * scale * n / SHARD_RECORDS)
    song_chars, verse_chars = (tuple(max(40, round(c * scale)) for c in chars)
                               for chars in (SONG_CHARS, VERSE_CHARS))

    pre = _exact_labels(
        rng,
        n,
        {
            "sampling-rate": round(SHARE_SAMPLING_RATE * n),
            "duration-out-of-range": round(SHARE_DURATION * n),
            "missing-score": round(SHARE_MISSING_SCORE * n),
        },
        "survivor",
    )
    survivors = [i for i in range(n) if pre[i] == "survivor"]
    low_plants = set(rng.choice(survivors, size=_percentile_plants(len(survivors)), replace=False).tolist())
    for i in survivors:
        pre[i] = "quality-percentile" if i in low_plants else "kept"

    lyric_role = _exact_labels(
        rng, n, {"song": song_pairs, "verse": verse_pairs, "lyrics-only": lyrics_only}, "none"
    )

    # Per-metric quality tiers with exact counts: 30% below the bar (the
    # percentile plants always among them), 40% exactly at it, 30% above.
    scored = [i for i in range(n) if pre[i] != "missing-score"]
    tiers: dict[str, dict[int, str]] = {}
    for metric in METRICS:
        free = [i for i in scored if i not in low_plants]
        n_low = round(0.3 * len(scored)) - len(low_plants)
        n_bar = round(0.4 * len(scored))
        labels = _exact_labels(rng, len(free), {"low": n_low, "bar": n_bar}, "high")
        tiers[metric] = dict(zip(free, labels))
        tiers[metric].update({i: "plant" for i in low_plants})

    records, expected_pre, expected_fine, expected_gate, expected_dur = [], {}, {}, {}, {}
    lrc_lines: dict[str, list[tuple[int, str]]] = {}
    gate_cells = 0
    near_far = {
        "song": ["near" if shard // 2 % 2 == 0 else "far"] * song_pairs,
        "verse": _exact_labels(rng, verse_pairs, {"near": verse_pairs // 2}, "far"),
    }
    role_seen = {"song": 0, "verse": 0}
    for i in range(n):
        rid = f"rec-{shard:02d}-{i:04d}"
        if pre[i] == "duration-out-of-range":
            duration = float(rng.choice([rng.uniform(8.0, 29.5), rng.uniform(361.0, 600.0)]))
        else:
            duration = float(rng.uniform(30.0, 360.0))
        duration = round(duration, 2)
        if pre[i] == "sampling-rate":
            rate = float(rng.choice([16_000.0, 22_050.0, 24_000.0]))
        else:
            rate = float(rng.choice([32_000.0, 44_100.0, 48_000.0], p=[0.3, 0.35, 0.35]))
        channels = 1 if rng.random() < 0.1 else 2

        scores: dict[str, float] = {}
        if pre[i] != "missing-score":
            for metric in METRICS:
                tier = tiers[metric][i]
                if tier == "plant":
                    scores[metric] = float(rng.uniform(0.0, 0.04))
                elif tier == "low":
                    scores[metric] = float(rng.uniform(0.10, 0.70))
                elif tier == "bar":
                    scores[metric] = QUALITY_BAR
                else:
                    scores[metric] = float(rng.uniform(0.80, 1.0))

        expected_pre[rid] = pre[i]
        if rate < 44_000.0:
            expected_fine[rid] = "sampling-rate"
        elif channels != 2:
            expected_fine[rid] = "channels"
        elif not scores:
            expected_fine[rid] = "missing-score"
        else:
            low = next((m for m in METRICS if tiers[m][i] in ("low", "plant")), None)
            expected_fine[rid] = f"below-median:{low}" if low else "kept"

        rec = RecordManifest(
            id=rid, duration=duration, sampling_rate=rate, channels=channels, quality_scores=scores
        )
        role = lyric_role[i]
        if role == "none":
            expected_gate[rid] = "kept"
            expected_dur[rid] = "missing-timestamps"
        else:
            cjk = role == "song" and shard % 2 == 1
            near_alpha, far_alpha = (_NEAR_CJK, _FAR_CJK) if cjk else (_NEAR_LATIN, _FAR_LATIN)
            if role == "song":
                lyric_chars, transcript_chars = song_chars
            elif role == "verse":
                lyric_chars, transcript_chars = verse_chars
            else:
                lyric_chars = int(rng.integers(300, 1200))
            text = _text(rng, near_alpha, lyric_chars)
            lines = _wrap(text, 24 if cjk else 40)
            timed = _timed_lines(rng, lines, duration)
            lrc_lines[rid] = timed
            rec.lyrics_lrc = _lrc_text(timed)
            if rng.random() < 0.5:
                rec.lyrics = list(lines)
            if role == "lyrics-only":
                expected_gate[rid] = "kept-unverified"
            else:
                kind = near_far[role][role_seen[role]]
                role_seen[role] += 1
                if kind == "near":
                    transcript = _near(rng, text, near_alpha, transcript_chars)
                    expected_gate[rid] = "kept"
                else:
                    transcript = _text(rng, far_alpha, transcript_chars)
                    expected_gate[rid] = "edit-distance"
                rec.transcript = _wrap(transcript, 40)
                gate_cells += len(text) * len(transcript)
            _add_structure(rng, rec, len(lines), expected_dur)
        records.append(rec)

    score_rows, dpo_pairs = _score_groups(rng, [r.id for r in records])
    return Manifest(
        records=records,
        score_rows=score_rows,
        pretrain=expected_pre,
        finetune=expected_fine,
        gate=expected_gate,
        duration=expected_dur,
        lrc_lines=lrc_lines,
        dpo_pairs=dpo_pairs,
        gate_cells=gate_cells,
    )


def _add_structure(rng, rec: RecordManifest, n_lines: int, expected: dict[str, str]) -> None:
    """Segments over the line range plus captions, with planted gaps."""
    n_seg = int(min(n_lines, rng.integers(1, 5)))
    cuts = sorted(rng.choice(np.arange(1, n_lines), size=n_seg - 1, replace=False).tolist()) if n_seg > 1 else []
    bounds = [0, *cuts, n_lines]
    rec.segments = [
        {"kind": "lyric", "label": ("verse", "chorus")[k % 2], "lines": [bounds[k], bounds[k + 1]]}
        for k in range(n_seg)
    ]
    rec.captions = {"global": f"a song in mood {int(rng.integers(0, 50))}"}
    rec.captions.update({str(k): f"{rec.segments[k]['label']} part {k}" for k in range(n_seg)})
    draw = rng.random()
    if draw < SHARE_MISSING_CAPTION:
        del rec.captions["global"]
        expected[rec.id] = "missing-caption:global"
    elif draw < 2 * SHARE_MISSING_CAPTION:
        gap = int(rng.integers(0, n_seg))
        del rec.captions[str(gap)]
        expected[rec.id] = f"missing-caption:{gap}"
    else:
        expected[rec.id] = "emitted"


def _score_groups(rng, ids: list[str]):
    """Candidates in groups of 4 or 8. Scores sit on tiers 0.2 apart with
    distinct jitter under 0.02, so a score gap is either above 0.18 or below
    0.02, never near DPO_MIN_DIFF. With distinct scores the candidates above
    a group's linearly interpolated third quartile are exactly its top
    quarter: the top one of 4, the top two of 8."""
    if len(ids) % 4:
        raise ValueError("the record count must be a multiple of 4")
    rows: list[dict] = []
    pairs: set[tuple[str, str, str]] = set()
    pos = 0
    while pos < len(ids):
        size = min(int(rng.choice([4, 8])), len(ids) - pos)
        members = ids[pos : pos + size]
        gid = f"g-{pos:05d}"
        pos += size
        tiers = rng.integers(0, 4, size=size)
        jitter = rng.permutation(size) * 0.002
        scores = [round(0.1 + 0.2 * int(t) + float(j), 6) for t, j in zip(tiers, jitter)]
        rows += [{"group": gid, "id": m, "score": s} for m, s in zip(members, scores)]
        order = sorted(range(size), key=lambda k: scores[k], reverse=True)
        for w in order[: size // 4]:
            pairs.update((gid, members[w], members[l]) for l in range(size) if tiers[w] > tiers[l])
    return rows, pairs
