"""DuckDB SQL builders for the correctness oracle.

Every result-checking test feeds these through
``repro.oracle.assert_equivalent`` with the edge table as input: DuckDB
recursive CTEs independently enumerate simple hop-bounded paths (or BFS
distances), so a broken Spark join/prune/⊕ is caught against an engine that
shares no code with the implementation.
"""
from __future__ import annotations

from repro.core.queries import Query


def st_paths_sql(queries: list[Query]) -> str:
    """All simple ≤k-hop s-t paths per query, as ``(qid, path_s)`` rows.

    One recursive CTE per query over the registered ``edges`` table (a
    query with ``k ≤ 0`` seeds no walk); paths are rendered ``'v0-v1-…'``
    to match ``repro.core.enumeration.paths_as_strings``.
    """
    ctes, selects = [], []
    for q in queries:
        w = f"w{q.qid}"
        ctes.append(
            f"""{w} AS (
  SELECT dst AS last, [src, dst] AS path, 1 AS len
  FROM edges WHERE src = {q.s} AND {q.k} >= 1
  UNION ALL
  SELECT e.dst, list_append(w.path, e.dst), w.len + 1
  FROM {w} w JOIN edges e ON w.last = e.src
  WHERE w.len < {q.k} AND NOT list_contains(w.path, e.dst)
    AND w.last <> {q.t}
)"""
        )
        selects.append(
            f"SELECT {q.qid} AS qid, array_to_string(path, '-') AS path_s "
            f"FROM {w} WHERE last = {q.t}"
        )
    return "WITH RECURSIVE " + ",\n".join(ctes) + "\n" + "\nUNION ALL\n".join(selects)


def dists_sql(roots: list[int], k_max: int) -> str:
    """BFS hop distances ``(root, v, dist)`` for every root, capped at k_max.

    Walk-based: bounded-length walks then MIN per vertex — exact for hop
    distances when the cap is respected on the walk length.
    """
    roots_sql = ", ".join(f"({r})" for r in sorted(set(roots)))
    return f"""WITH RECURSIVE rts(root) AS (VALUES {roots_sql}),
walks AS (
  SELECT root, root AS v, 0 AS d FROM rts
  UNION
  SELECT w.root, e.dst, w.d + 1
  FROM walks w JOIN edges e ON w.v = e.src
  WHERE w.d < {k_max}
)
SELECT root, v, MIN(d) AS dist FROM walks GROUP BY root, v"""


def hcs_paths_sql(root: int, budget: int) -> str:
    """All simple paths from ``root`` with ≤ budget hops (incl. length 0),
    as ``(path_s)`` rows — the HC-s path query oracle (Def 4.2)."""
    return f"""WITH RECURSIVE w AS (
  SELECT {root} AS last, [{root}] AS path, 0 AS len
  UNION ALL
  SELECT e.dst, list_append(w.path, e.dst), w.len + 1
  FROM w JOIN edges e ON w.last = e.src
  WHERE w.len < {budget} AND NOT list_contains(w.path, e.dst)
)
SELECT array_to_string(path, '-') AS path_s FROM w"""
