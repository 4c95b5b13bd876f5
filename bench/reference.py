"""Reference answers computed by the benchmark itself, and checks of what a
program output claims.

Nothing here calls ``tracelang.problems.oracle``: mod-2 systems are solved by
GF(2) elimination, reachability by BFS, same-generation by tree depth, and
the counting problems by domain parity and size.  Witnesses are checked for
what they claim (a path of edges from S to T, an assignment satisfying every
equation, a chain of distinct elements), not compared with a stored copy.
"""

from __future__ import annotations

from collections import deque


def _eliminate(equations) -> tuple[dict[int, tuple[int, int]], bool]:
    """Row-reduce {x_i ^ x_j ^ x_k = p}: the rows by their highest variable,
    and whether the system is consistent.  A repeated index cancels."""
    pivots: dict[int, tuple[int, int]] = {}
    consistent = True
    for variables, parity in equations:
        mask = 0
        for v in variables:
            mask ^= 1 << v
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, parity)
                break
            pmask, pparity = pivots[top]
            mask ^= pmask
            parity ^= pparity
        else:
            consistent = consistent and not parity
    return pivots, consistent


def gf2_rank(equations) -> int:
    return len(_eliminate(equations)[0])


def solve_gf2(nvars: int, equations) -> dict[int, int] | None:
    """A solution of the system ((i, j, k), p), or None if there is none."""
    pivots, consistent = _eliminate(equations)
    if not consistent:
        return None
    value = {v: 0 for v in range(nvars)}  # free variables are 0
    for top in sorted(pivots):  # lower bits of a row are solved before its pivot
        mask, parity = pivots[top]
        for v in range(top):
            if mask >> v & 1:
                parity ^= value[v]
        value[top] = parity
    return value


def satisfies(assignment: dict[int, int], equations) -> bool:
    return all(
        (sum(assignment[v] for v in variables) & 1) == parity
        for variables, parity in equations
    )


def bfs_path(edges, s, t) -> list | None:
    """A shortest path from s to t as a node list, or None."""
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    parent = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            path = [u]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for v in adj.get(u, ()):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return None


def tree_depth(parents: list, node: int) -> int:
    depth = 0
    while parents[node] is not None:
        node = parents[node]
        depth += 1
    return depth


# --- witness claims ----------------------------------------------------------
# Each check takes the witness's choices as (module, {register: element})
# pairs and returns None when the claim holds, else the reason it does not.


def check_path_witness(choices, edges, s, t) -> str | None:
    """Start writes S into Reach, each Step/Commit pair follows an edge from
    the current Reach to a node not reached before, and Reach ends at T."""
    if s == t:
        return None if not choices else "s = t needs no steps"
    if not choices or choices[0] != ("Start", {"Reach": s}):
        return "path witness does not start with Start(Reach=S)"
    edge_set = set(edges)
    here, seen = s, {s}
    rest = choices[1:]
    if len(rest) % 2:
        return "path witness has an unpaired step"
    for (m1, a1), (m2, a2) in zip(rest[::2], rest[1::2]):
        if m1 != "Step" or m2 != "Commit" or a1.get("Next") != a2.get("Reach"):
            return "path witness is not a sequence of Step/Commit pairs"
        nxt = a1["Next"]
        if (here, nxt) not in edge_set:
            return f"path witness steps along a non-edge {here} -> {nxt}"
        if nxt in seen:
            return f"path witness revisits {nxt}"
        here = nxt
        seen.add(nxt)
    return None if here == t else "path witness does not end at T"


def check_mod2_witness(choices, variables, equations) -> str | None:
    """Every variable is picked once and recorded true or false, and the
    variables written into TrueRec satisfy every equation."""
    true_vars, picked = set(), []
    for module, assignment in choices:
        if module == "PickVar":
            picked.append(assignment.get("Var"))
        elif module == "RecordTrue":
            true_vars.add(assignment.get("TrueRec"))
    if sorted(picked) != sorted(variables):
        return "mod-2 witness does not pick every variable exactly once"
    value = {i: int(name in true_vars) for i, name in enumerate(variables)}
    if not satisfies(value, equations):
        return "mod-2 witness TrueRec writes violate an equation"
    return None


def check_chain_witness(choices, length, domain) -> str | None:
    """``length`` GuessP choices writing distinct domain elements into P."""
    values = [a.get("P") for m, a in choices if m == "GuessP"]
    if len(choices) != length or len(values) != length:
        return f"chain witness has {len(choices)} choices, expected {length}"
    if len(set(values)) != length or not set(values) <= set(domain):
        return "chain witness repeats an element or leaves the domain"
    return None
