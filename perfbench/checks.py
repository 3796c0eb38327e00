"""Output checks computed apart from ``tritile``.

Nothing here imports the package under test.  Codes are decoded in the
benchmark's own lexicographic edge order, monochromatic triangles and
disjointness are tested on plain dicts and sets, and every closed form and
band formula is written out from the paper's statements.  Each checker
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from itertools import combinations

# --------------------------------------------------------------------------
# colourings and triangles


def complete_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in the order (0,1), (0,2), ..., (n-2,n-1)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def decode(n: int, code: int) -> dict[tuple[int, int], int]:
    """Colour of each edge of K_n: bit i of ``code`` colours edge i."""
    return {e: (code >> i) & 1 for i, e in enumerate(complete_edges(n))}


def colour_map(edges) -> dict[tuple[int, int], int]:
    """Colour lookup from ``(u, v, c)`` triples, keyed by the sorted pair."""
    return {(min(u, v), max(u, v)): c for u, v, c in edges}


def mono_triangles(colour: dict[tuple[int, int], int], n: int) -> list[tuple[tuple[int, int, int], int]]:
    """Every monochromatic triangle as ``((a, b, c), colour)``."""
    out = []
    for a, b, c in combinations(range(n), 3):
        col = colour.get((a, b))
        if col is not None and colour.get((a, c)) == col and colour.get((b, c)) == col:
            out.append(((a, b, c), col))
    return out


def has_pair_sharing_at_most(tris, shared: int) -> bool:
    sets = [set(t) for t, _ in tris]
    return any(len(x & y) <= shared for x, y in combinations(sets, 2))


# --------------------------------------------------------------------------
# formulas from the paper


def tiler_guarantees(n: int, d: int) -> dict[str, int | None]:
    """Guaranteed tile count of each constructive tiler, None outside its band."""
    low = 4 * n <= 5 * d and 6 * d <= 5 * n
    return {
        "moon_small": 5 * d - 4 * n if low else None,
        "bes_small": -(-(5 * d - 4 * n) // 2) if low else None,
        "moon_large": (2 * d - n) // 3 if 8 * d >= 7 * n and d <= n - 1 else None,
        "bes_large": (d + 1) // 5 if 66 * d >= 65 * n and d <= n - 1 else None,
    }


def piecewise_bounds(n: int, d: int) -> dict[str, object]:
    """The mixed and single-colour guarantees by degree band, as the CSV prints them."""
    if 6 * d <= 5 * n:
        moon = (5 * d - 4 * n, "low", False)
    elif 8 * d >= 7 * n:
        moon = ((2 * d - n) // 3, "high", False)
    else:
        moon = ((4 * d - 3 * n) // 2, "mid", True)
    if 17 * d >= 15 * n:
        bes = ((d + 1) // 5, "high", not (66 * d >= 65 * n or n >= 25))
    elif 7 * d >= 6 * n:
        bes = ((4 * d - 3 * n + 1) // 3, "mid", True)
    else:
        bes = ((5 * d - 4 * n + 1) // 2, "low", not (6 * d <= 5 * n or n >= 25))
    return {"moon_bound": moon[0], "moon_piece": moon[1], "moon_asymptotic": moon[2],
            "bes_bound": bes[0], "bes_piece": bes[1], "bes_conjectural": bes[2],
            "extremal_min": min(5 * d - 4 * n, (4 * d - 3 * n) // 2, (2 * d - n) // 3)}


def closed_form(family: str, mode: str, n: int, d: int) -> tuple[int, bool] | None:
    """(value, exact) for an unrecoloured extremal construction, or None.

    Each value is an upper bound on the optimum that holds at every (n, d)
    where the construction exists; ``exact`` says that the construction
    attains it there.  Mixed mode: every mono triangle of ex-triangle is red,
    meets V0 (5d-4n vertices) and has two vertices in V0 + V1 (4d-3n
    vertices), and the paper's extremal minimum adds (2d-n)/3; every mono
    triangle of ex-triangle-alt lies in R (2d-n vertices); every mono
    triangle of ex-bes-2 has two vertices in its first pattern class (4d-3n
    vertices).  Single-colour mode: the paper's piecewise counts, exact in
    the band where the construction is the extremal one.
    """
    if (family, mode) == ("ex-triangle", "mixed"):
        return min(5 * d - 4 * n, (4 * d - 3 * n) // 2, (2 * d - n) // 3), True
    if (family, mode) == ("ex-triangle-alt", "mixed"):
        return (2 * d - n) // 3, True
    if (family, mode) == ("ex-bes-2", "mixed"):
        return min((4 * d - 3 * n) // 2, n // 3), True
    if (family, mode) == ("ex-bes-1", "single"):
        return (d + 1) // 5, True
    if (family, mode) == ("ex-bes-2", "single"):
        return (4 * d - 3 * n + 1) // 3, 17 * d < 15 * n
    if (family, mode) == ("ex-bes-3", "single"):
        return (5 * d - 4 * n + 1) // 2, 7 * d < 6 * n
    return None


def check_closed_form(family: str, mode: str, n: int, d: int, optimum: int) -> list[str]:
    form = closed_form(family, mode, n, d)
    if form is None:
        return []
    value, exact = form
    if optimum > value or (exact and optimum != value):
        return [f"{family}({n},{d}) {mode} optimum {optimum}, closed form "
                f"{'=' if exact else '<='} {value}"]
    return []


# --------------------------------------------------------------------------
# per-workload checks


def check_tiling(colour: dict[tuple[int, int], int], cliques, optimum: int,
                 single: bool) -> list[str]:
    """``cliques`` is a list of (vertices, colour) pairs claimed for one host."""
    problems = []
    used: set[int] = set()
    colours = set()
    for verts, col in cliques:
        if len(verts) != 3 or len(set(verts)) != 3:
            problems.append(f"tile {verts} is not a triangle")
            continue
        seen = {colour.get((min(u, v), max(u, v))) for u, v in combinations(verts, 2)}
        if seen != {col}:
            problems.append(f"tile {verts} is not monochromatic in colour {col}")
        if used & set(verts):
            problems.append(f"tile {verts} overlaps an earlier tile")
        used |= set(verts)
        colours.add(col)
    if single and len(colours) > 1:
        problems.append(f"single-colour tiling uses colours {sorted(colours)}")
    if len(cliques) != optimum:
        problems.append(f"tiling has {len(cliques)} tiles, optimum says {optimum}")
    return problems


def check_scan(reports: dict, sample_codes: dict[str, list[int]]) -> dict[str, list[str]]:
    """Problems per scan call, keyed like ``reports``.

    ``reports`` holds ``as_dict()`` outputs: fact_k6, claim_k7,
    disjoint_pair_k7, ramsey, special_ramsey.  ``sample_codes`` holds seeded
    codes per lemma, re-decoded here to confirm the lemma on them.
    """
    out: dict[str, list[str]] = {}
    fact = reports["fact_k6"]
    p = []
    if fact["checked"] != 1 << 15 or fact["violation_count"] != 0:
        p.append(f"fact-k6 checked {fact['checked']} with {fact['violation_count']} violations")
    for code in sample_codes.get("fact_k6", []):
        if len(mono_triangles(decode(6, code), 6)) < 2:
            p.append(f"K6 code {code} has fewer than two mono triangles")
    out["fact_k6"] = p

    claim = reports["claim_k7"]
    p = []
    if claim["checked"] != 1 << 21 or claim["violation_count"] != 0:
        p.append(f"claim-k7 checked {claim['checked']} with {claim['violation_count']} violations")
    for code in sample_codes.get("claim_k7", []):
        if not has_pair_sharing_at_most(mono_triangles(decode(7, code), 7), 1):
            p.append(f"K7 code {code} has no mono pair sharing at most one vertex")
    out["claim_k7"] = p

    pair = reports["disjoint_pair_k7"]
    p = []
    if pair["checked"] != 1 << 21 or pair["violation_count"] <= 0:
        p.append(f"disjoint-pair-k7 checked {pair['checked']} with "
                 f"{pair['violation_count']} violations; K7 needs some")
    if not 0 < len(pair["violations"]) <= pair["violation_count"]:
        p.append("disjoint-pair-k7 witness list does not fit its count")
    for code in pair["violations"]:
        if has_pair_sharing_at_most(mono_triangles(decode(7, code), 7), 0):
            p.append(f"disjoint-pair witness {code} has two disjoint mono triangles")
    out["disjoint_pair_k7"] = p

    ram = reports["ramsey"]
    p = []
    if ram["value"] != 6 or ram["witness_n"] != 5:
        p.append(f"R(K3) reported {ram['value']} with witness order {ram['witness_n']}")
    elif mono_triangles(decode(5, ram["witness_code"]), 5):
        p.append("the 5-vertex Ramsey witness has a mono triangle")
    out["ramsey"] = p

    spec = reports["special_ramsey"]
    p = []
    if spec["value"] != 4 or spec["witness_n"] != 3:
        p.append(f"special R(K3) reported {spec['value']} with witness order {spec['witness_n']}")
    else:
        col = decode(3, spec["witness_code"])
        if mono_triangles(col, 3):
            p.append("the special witness has a mono triangle")
        if col[(0, 1)] != col[(0, 2)]:
            p.append("the special witness apex sees both colours")
    out["special_ramsey"] = p
    return out


def check_campaign(sampling: dict, descent: dict, samples: int, restarts: int) -> list[str]:
    """``sampling`` and ``descent`` are the two reports' ``comparable()`` dicts."""
    p = []
    for name, rep in (("sampling", sampling), ("descent", descent)):
        if rep["violation_count"] != 0 or rep["violations"]:
            p.append(f"{name} found {rep['violation_count']} doubled-K7 violations")
        if rep["extra"]["extractor_failures"] != 0:
            p.append(f"{name} had {rep['extra']['extractor_failures']} extractor failures")
        if rep["extra"]["adversarial_min_packing"] < 3:
            p.append(f"{name} reports a packing floor below three")
    if sampling["checked"] != samples:
        p.append(f"sampling checked {sampling['checked']}, asked for {samples}")
    if descent["checked"] < restarts:
        p.append(f"descent checked {descent['checked']} states over {restarts} restarts")
    return p


def check_sweep_row(row: dict[str, str]) -> list[str]:
    """One CSV row of ``tritile experiment``, as read by ``csv.DictReader``."""
    p = []
    n, d = int(row["n"]), int(row["delta"])
    if row["status"] != "ok":
        p.append(f"status {row['status']}")
    if row["mixed_proved"] != "True" or row["single_proved"] != "True":
        p.append("optimum not proved")
    mixed, single = int(row["mixed_optimum"]), int(row["single_optimum"])
    if mixed < single:
        p.append(f"mixed optimum {mixed} below single optimum {single}")
    for name, floor in tiler_guarantees(n, d).items():
        cell = row[name]
        if floor is None:
            if cell != "":
                p.append(f"{name} ran outside its band")
            continue
        if cell == "":
            p.append(f"{name} is empty inside its band")
            continue
        if int(cell) < floor:
            p.append(f"{name} tiled {cell}, guarantee {floor}")
        if int(cell) > mixed:
            p.append(f"{name} tiled {cell}, above the mixed optimum {mixed}")
    for key, want in piecewise_bounds(n, d).items():
        if row[key] != str(want):
            p.append(f"{key} is {row[key]}, formula gives {want}")
    for mode, optimum in (("mixed", mixed), ("single", single)):
        p += check_closed_form(row["source"], mode, n, d, optimum)
    return p
    return p
