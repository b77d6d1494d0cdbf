"""Seeded input generator for the dedup benchmark.

Writes, per (workload, seed), the Parquet inputs the program reads —
columns ``(id, repo, path, commit, lang, content)`` — and a truth side
table that only the checks read: the planted family of every row, the
planted exact-copy groups and the embedded-block pairs.

Text is synthetic: whitespace-separated pseudo-words drawn from a fixed
8000-word vocabulary with Zipf-like frequencies, eight words to a line.
Every input is a pure function of (workload, seed, GEN_VERSION).

Outputs are cached under ``perfbench/.cache/<workload>-s<seed>-v<version>``
with a sha256 per file in ``manifest.json``; a cache entry is reused only
when every checksum matches.

Run directly to (re)build one entry:
    python3 perfbench/gen.py --workload near_dense --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_ROOT = os.path.join(HERE, ".cache")
WORKLOADS = ("near_dense", "boilerplate_substring", "incremental_delta")

VOCAB_SIZE = 8000
LINE_TOKENS = 8
LANGS = ("py", "js", "go", "java", "c")
FIRST_ID = 1000


def _vocab() -> np.ndarray:
    """Fixed vocabulary (seed-independent): unique lowercase words 2-9 long."""
    rng = np.random.default_rng(20261019)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    seen: dict[str, None] = {}
    while len(seen) < VOCAB_SIZE:
        lens = rng.integers(2, 10, 4 * VOCAB_SIZE)
        chars = rng.choice(letters, int(lens.sum()))
        pos = 0
        for n in lens:
            seen.setdefault("".join(chars[pos : pos + n]), None)
            pos += n
            if len(seen) == VOCAB_SIZE:
                break
    return np.array(list(seen), dtype=object)


class Text:
    """Token-array text model: draws, mutates and renders documents."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.words = _vocab()
        w = 1.0 / (np.arange(VOCAB_SIZE) + 5.0)
        self.cdf = np.cumsum(w / w.sum())

    def tokens(self, n: int) -> np.ndarray:
        return np.minimum(
            np.searchsorted(self.cdf, self.rng.random(n)), VOCAB_SIZE - 1
        ).astype(np.int32)

    def mutate(self, toks: np.ndarray, n_edits: int) -> np.ndarray:
        """Apply ``n_edits`` single-token replace/insert/delete edits."""
        out = toks.copy()
        for op in self.rng.integers(0, 3, n_edits):
            p = int(self.rng.integers(0, len(out)))
            if op == 0:
                out[p] = self.tokens(1)[0]
            elif op == 1:
                out = np.insert(out, p, self.tokens(1))
            elif len(out) > 2 * LINE_TOKENS:
                out = np.delete(out, p)
        return out

    def render(self, toks: np.ndarray) -> str:
        w = self.words[toks]
        return "\n".join(
            " ".join(w[i : i + LINE_TOKENS]) for i in range(0, len(w), LINE_TOKENS)
        )


class Builder:
    """Accumulates rows; ids are assigned in a seeded random order so that
    family members are scattered across the id space."""

    def __init__(self, text: Text):
        self.text = text
        self.contents: list[str] = []
        self.family: list[int] = []
        self.n_families = 0

    def new_family(self) -> int:
        self.n_families += 1
        return self.n_families - 1

    def add(self, content: str, family: int) -> int:
        self.contents.append(content)
        self.family.append(family)
        return len(self.contents) - 1

    def finish(self, first_id: int) -> tuple[pa.Table, np.ndarray]:
        """Corpus table plus ``ids`` (row index → id) for truth bookkeeping."""
        rng = self.text.rng
        n = len(self.contents)
        ids = first_id + rng.permutation(n).astype(np.int64)
        order = np.argsort(ids)
        commits = rng.integers(0, 2**63, (n, 3), dtype=np.int64)
        rows = {
            "id": ids[order],
            "repo": [f"org{i % 17}/repo{i % 101}" for i in ids[order]],
            "path": [f"src/m{i}.{LANGS[i % 5]}" for i in ids[order]],
            "commit": [
                "".join(f"{int(x) & (2**63 - 1):016x}" for x in c)[:40]
                for c in commits[order]
            ],
            "lang": [LANGS[i % 5] for i in ids[order]],
            "content": [self.contents[i] for i in order],
        }
        return pa.table(rows), ids


def _spread(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n values evenly spaced over [lo, hi) in seeded order: the multiset
    is the same for every seed, so the amount of work is too."""
    return rng.permutation(np.linspace(lo, hi, n, endpoint=False))


def _schedule(rng, n: int, shares: dict[str, float]) -> list[str]:
    """Exactly round(n * share) of each kind (the last takes the rest), in
    seeded order."""
    kinds, left = [], n
    for k, (kind, share) in enumerate(shares.items()):
        m = left if k == len(shares) - 1 else round(n * share)
        kinds += [kind] * m
        left -= m
    return [kinds[i] for i in rng.permutation(n)]


FAMILY_SIZES = {1: 0.45, 2: 0.25, 3: 0.14, 4: 0.08, 5: 0.05, 6: 0.03}


def _families(rng, b: Builder, text: Text, n_roots: int, lo: int, hi: int
              ) -> list[np.ndarray]:
    """Families of one root plus exact (25 %), light (55 %) and distant
    (20 %) copies; family sizes follow FAMILY_SIZES.

    Light copies get 0.2-1.2 % token edits (true 5-shingle Jaccard to the
    root ≈ 0.93-0.99); distant copies get 3-8 % (≈ 0.4-0.75), so the
    verify step sees candidates it must reject."""
    sizes = [int(x) for x in _schedule(rng, n_roots, FAMILY_SIZES)]
    lengths = _spread(rng, n_roots, lo, hi).astype(int)
    n_copies = sum(sizes) - n_roots
    kinds = iter(_schedule(rng, n_copies, {"exact": 0.25, "light": 0.55, "distant": 0.2}))
    light = iter(_spread(rng, n_copies, 0.002, 0.012))
    distant = iter(_spread(rng, n_copies, 0.03, 0.08))
    roots = []
    for size, length in zip(sizes, lengths):
        fam = b.new_family()
        toks = text.tokens(int(length))
        roots.append(toks)
        root_txt = text.render(toks)
        b.add(root_txt, fam)
        for _ in range(size - 1):
            kind = next(kinds)
            if kind == "exact":
                b.add(root_txt, fam)
            else:
                rate = next(light) if kind == "light" else next(distant)
                b.add(text.render(text.mutate(toks, max(1, round(rate * len(toks))))), fam)
    return roots


def _truth(b: Builder, ids: np.ndarray, block_pairs: list[tuple[int, int]]) -> dict:
    """Truth side table in id space."""
    by_content: dict[str, list[int]] = {}
    for i, c in enumerate(b.contents):
        by_content.setdefault(c, []).append(int(ids[i]))
    return {
        "ids": [int(x) for x in ids],
        "family": [int(f) for f in b.family],
        "exact_groups": sorted(sorted(g) for g in by_content.values() if len(g) > 1),
        "block_pairs": sorted(
            tuple(sorted((int(ids[a]), int(ids[c])))) for a, c in block_pairs
        ),
    }


def gen_near_dense(rng, text: Text) -> tuple[dict, dict]:
    b = Builder(text)
    _families(rng, b, text, n_roots=1400, lo=120, hi=400)
    tbl, ids = b.finish(FIRST_ID)
    return {"corpus": tbl}, _truth(b, ids, [])


LICENSE_TOKENS = 60


def gen_boilerplate_substring(rng, text: Text) -> tuple[dict, dict]:
    """1000 unique long files (350-750 tokens), 50 of them also copied
    verbatim; a 60-token license header on 400 of them; one vendored file
    copied into 110 rows (~10 %), half exact and half with 1-3 edits, so
    its band buckets exceed the benchmark's max_bucket_size = 64; 40
    groups of 2-3 unrelated files sharing a verbatim block of 260-400
    tokens."""
    b = Builder(text)
    n_unique, n_vendor, n_blocks = 1000, 110, 40
    header = text.tokens(LICENSE_TOKENS)
    bodies = [text.tokens(int(n)) for n in _spread(rng, n_unique, 350, 750)]
    has_header = np.array(_schedule(rng, n_unique, {"h": 0.4, "-": 0.6})) == "h"
    copied = np.array(_schedule(rng, n_unique, {"c": 0.05, "-": 0.95})) == "c"
    # embedded blocks: disjoint groups of 2-3 bodies receive one shared block
    block_pairs = []
    members = iter(int(x) for x in rng.permutation(n_unique))
    grouped: dict[int, list[int]] = {}
    for k, length in zip(_schedule(rng, n_blocks, {2: 0.5, 3: 0.5}),
                         _spread(rng, n_blocks, 260, 400)):
        grp = [next(members) for _ in range(int(k))]
        block = text.tokens(int(length))
        for g in grp:
            body = bodies[g]
            at = int(rng.integers(0, len(body)))
            bodies[g] = np.concatenate([body[:at], block, body[at:]])
            grouped[g] = grp
    row_of = {}
    for i in range(n_unique):
        toks = np.concatenate([header, bodies[i]]) if has_header[i] else bodies[i]
        fam = b.new_family()
        row_of[i] = b.add(text.render(toks), fam)
        if copied[i]:  # a verbatim copy elsewhere in the tree
            b.add(b.contents[row_of[i]], fam)
    for g, grp in grouped.items():
        block_pairs += [(row_of[g], row_of[o]) for o in grp if o > g]
    vendor = text.tokens(450)
    vendor_txt = text.render(vendor)
    fam = b.new_family()
    for k in range(n_vendor):
        if k % 2 == 0:
            b.add(vendor_txt, fam)
        else:
            b.add(text.render(text.mutate(vendor, 1 + k % 3)), fam)
    tbl, ids = b.finish(FIRST_ID)
    return {"corpus": tbl}, _truth(b, ids, block_pairs)


N_DELTAS = 3
DELTA_KINDS = {"light": 90, "exact": 30, "pair": 15, "bridge": 12, "fresh": 138}


def gen_incremental_delta(rng, text: Text) -> tuple[dict, dict]:
    """A base corpus of near-dup families (1100 roots), then N_DELTAS
    appended deltas of 300 rows each (DELTA_KINDS): light and exact copies
    of base roots, near-dup pairs new to the delta, fresh documents and
    bridges. A bridge embeds a 240-320 token block of each of two base
    roots from different families, so the substring tier merges two base
    clusters and the delta job reports a merge."""
    b = Builder(text)
    roots = _families(rng, b, text, n_roots=1100, lo=150, hi=500)
    root_rows = [i for i in range(len(b.contents))
                 if i == 0 or b.family[i] != b.family[i - 1]]
    long_roots = [i for i, t in enumerate(roots) if len(t) >= 320]
    base_tbl, base_ids = b.finish(FIRST_ID)
    base_truth = _truth(b, base_ids, [])
    nxt = int(base_ids.max()) + 1
    out = {"base": base_tbl}
    truth = {"base": base_truth, "deltas": []}
    n_kinds = sum(DELTA_KINDS.values())
    for d in range(N_DELTAS):
        db = Builder(text)
        # families new to this delta are numbered apart from the base's
        # and from other deltas'; copies of base roots keep the base family
        db.n_families = b.n_families + 10_000 * (d + 1)
        block_pairs_base = []
        kinds = _schedule(rng, n_kinds, {k: v / n_kinds for k, v in DELTA_KINDS.items()})
        rates = iter(_spread(rng, n_kinds, 0.002, 0.012))
        lengths = iter(_spread(rng, n_kinds, 150, 500).astype(int))
        for kind in kinds:
            r = int(rng.integers(0, len(roots)))
            fam_r = b.family[root_rows[r]]
            if kind == "light":
                db.add(text.render(text.mutate(roots[r], max(1, round(next(rates) * len(roots[r]))))), fam_r)
            elif kind == "exact":
                db.add(b.contents[root_rows[r]], fam_r)
            elif kind == "pair":
                fam = db.new_family()
                toks = text.tokens(int(next(lengths)))
                db.add(text.render(toks), fam)
                db.add(text.render(text.mutate(toks, 2)), fam)
            elif kind == "bridge":
                r, r2 = (long_roots[int(x)] for x in rng.choice(len(long_roots), 2, replace=False))
                l1, l2 = int(rng.integers(240, 320)), int(rng.integers(240, 320))
                toks = np.concatenate([roots[r][:l1], text.tokens(80), roots[r2][-l2:]])
                row = db.add(text.render(toks), db.new_family())
                block_pairs_base += [(row, root_rows[r]), (row, root_rows[r2])]
            else:
                db.add(text.render(text.tokens(int(next(lengths)))), db.new_family())
        tbl, ids = db.finish(nxt)
        nxt = int(ids.max()) + 1
        out[f"delta_{d:02d}"] = tbl
        dt = _truth(db, ids, [])
        dt["block_pairs"] = sorted(
            tuple(sorted((int(ids[x]), int(base_ids[y])))) for x, y in block_pairs_base
        )
        truth["deltas"].append(dt)
    return out, truth


GENERATORS = {
    "near_dense": gen_near_dense,
    "boilerplate_substring": gen_boilerplate_substring,
    "incremental_delta": gen_incremental_delta,
}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def entry_dir(workload: str, seed: int) -> str:
    return os.path.join(CACHE_ROOT, f"{workload}-s{seed}-v{GEN_VERSION}")


def _valid(d: str) -> bool:
    try:
        with open(os.path.join(d, "manifest.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        return False
    return all(
        os.path.exists(os.path.join(d, name)) and _sha256(os.path.join(d, name)) == digest
        for name, digest in manifest["sha256"].items()
    )


def ensure(workload: str, seed: int) -> str:
    """Cache directory holding the inputs and truth for (workload, seed);
    generated when missing or when a checksum does not match."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    d = entry_dir(workload, seed)
    if _valid(d):
        return d
    shutil.rmtree(d, ignore_errors=True)
    tmp = f"{d}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), GEN_VERSION])
    tables, truth = GENERATORS[workload](rng, Text(rng))
    names = []
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(tmp, f"{name}.parquet"))
        names.append(f"{name}.parquet")
    with open(os.path.join(tmp, "truth.json"), "w") as f:
        json.dump(truth, f)
    names.append("truth.json")
    manifest = {
        "workload": workload,
        "seed": seed,
        "gen_version": GEN_VERSION,
        "rows": {name: tbl.num_rows for name, tbl in tables.items()},
        "sha256": {n: _sha256(os.path.join(tmp, n)) for n in names},
    }
    with open(os.path.join(tmp, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, d)
    return d


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args()
    print(ensure(a.workload, a.seed))


if __name__ == "__main__":
    main()
