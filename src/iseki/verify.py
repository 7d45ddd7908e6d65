"""Independent re-validation of witnesses embedded in reports.

Every negative verdict emitted by the package carries a concrete
witness.  The functions here re-check those witnesses from first
principles with plain set arithmetic over the Cayley tables, read as
``t[a][b]`` (a semiring's tuple tables, or the nested lists of a
document): no bitmask kernels, no closed-set lattice, no classification
cache.  They return True when the witness genuinely demonstrates the
claimed failure.
"""


def _is_ideal_set(s, subset):
    if not subset or 0 not in subset:
        return False
    if all(s.add[a][b] in subset for a in subset for b in subset) and all(
        s.mul[r][a] in subset for r in range(s.n) for a in subset
    ):
        return True
    return False


def _generated_set(s, seed):
    out = set(seed) | {0}
    while True:
        grown = set(out)
        for a in out:
            for b in out:
                grown.add(s.add[a][b])
            for r in range(s.n):
                grown.add(s.mul[r][a])
        if grown == out:
            return out
        out = grown


def _powers(s, r):
    seen = []
    x = r
    while x not in seen:
        seen.append(x)
        x = s.mul[x][r]
    return seen


def verify_axiom_witness(add, mul, one, axiom, witness):
    """Plug the witness back into the raw tables."""
    w = list(witness)
    if axiom == "add-commutative":
        a, b = w
        return add[a][b] != add[b][a]
    if axiom == "add-identity":
        (a,) = w
        return add[0][a] != a
    if axiom == "add-associative":
        a, b, c = w
        return add[add[a][b]][c] != add[a][add[b][c]]
    if axiom == "mul-commutative":
        a, b = w
        return mul[a][b] != mul[b][a]
    if axiom == "mul-identity":
        (a,) = w
        return mul[one][a] != a
    if axiom == "mul-associative":
        a, b, c = w
        return mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if axiom == "absorption":
        (a,) = w
        return mul[0][a] != 0 or mul[a][0] != 0
    if axiom == "distributive-left":
        a, b, c = w
        return mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
    return False


def verify_classification_witnesses(s, members, classification_json):
    """Re-validate every witness attached to a classification report.

    Returns the list of witness names that fail re-validation (empty
    means everything checked out).
    """
    a = set(members)
    flags = classification_json
    witnesses = classification_json["witnesses"]
    bad = []

    if not flags["prime"]:
        x, y = witnesses["prime"]
        if not (s.mul[x][y] in a and x not in a and y not in a):
            bad.append("prime")
    if not flags["radical"]:
        (r,) = witnesses["radical"]
        if r in a or not any(p in a for p in _powers(s, r)):
            bad.append("radical")
    if not flags["primary"]:
        x, y = witnesses["primary"]
        if not (
            s.mul[x][y] in a
            and x not in a
            and not any(p in a for p in _powers(s, y))
        ):
            bad.append("primary")
    if not flags["maximal"]:
        bigger = set(witnesses["maximal"])
        if not (
            _is_ideal_set(s, bigger)
            and a < bigger
            and len(bigger) < s.n
        ):
            bad.append("maximal")
    if not flags["irreducible"]:
        left, right = (set(side) for side in witnesses["irreducible"])
        if not (
            _is_ideal_set(s, left)
            and _is_ideal_set(s, right)
            and left & right == a
            and left != a
            and right != a
        ):
            bad.append("irreducible")
    if not flags["strongly_irreducible"]:
        left, right = (set(side) for side in witnesses["strongly_irreducible"])
        if not (
            _is_ideal_set(s, left)
            and _is_ideal_set(s, right)
            and left & right <= a
            and not left <= a
            and not right <= a
        ):
            bad.append("strongly_irreducible")
    seed = witnesses["generators"]
    if _generated_set(s, seed) != a or len(seed) != flags["min_generators"]:
        bad.append("generators")
    return bad


def _point_sets(points):
    return [set(p) for p in points]


def verify_t0_witness(s, points, pair):
    """Two distinct listed points sharing an up-set membership pattern.

    At finite scale this can never validate (a point belongs to its own
    up-set), so any reported T0 failure is refuted here, which is the
    point: the claim must be a bug.
    """
    x, y = (set(p) for p in pair)
    pts = _point_sets(points)
    if x not in pts or y not in pts or x == y:
        return False
    up_x = [i for i, z in enumerate(pts) if x <= z]
    up_y = [i for i, z in enumerate(pts) if y <= z]
    return up_x == up_y


def verify_t1_witness(s, points, point):
    """A point properly contained in another point (non-closed singleton)."""
    y = set(point)
    pts = _point_sets(points)
    return y in pts and any(y < z for z in pts)


def _up_closed(pts, part):
    indices = {i for i, p in enumerate(pts) if p in part}
    return all(
        j in indices
        for i in indices
        for j, z in enumerate(pts)
        if pts[i] <= z
    )


def verify_connected_false_witness(s, points, left_members):
    """A clopen split of the point list.

    Closed sets of an Iseki space over the full ideal subbasis are
    exactly the up-closed point-sets (every point is itself an ideal, so
    its up-set is subbasic), so clopen-ness reduces to: the listed part
    and its complement are both nonempty and up-closed under inclusion.
    """
    pts = _point_sets(points)
    left = [set(p) for p in left_members]
    right = [p for p in pts if p not in left]
    if not left or not right or any(p not in pts for p in left):
        return False
    return _up_closed(pts, left) and _up_closed(pts, right)


def verify_disconnection_witness(s, points, witness_json):
    """Two ideal families whose up-set unions partition the point list."""
    pts = _point_sets(points)
    sides = []
    for key in ("left", "right"):
        family = [set(m) for m in witness_json[key]]
        if not family or not all(_is_ideal_set(s, f) for f in family):
            return False
        covered = {
            i for i, p in enumerate(pts) if any(f <= p for f in family)
        }
        sides.append(covered)
    left, right = sides
    return bool(left) and bool(right) and not (left & right) and (
        left | right == set(range(len(pts)))
    )


def verify_contraction_witness(s, t, hom_map, point, preimage):
    """The preimage of the listed point really is the listed ideal of s."""
    target = set(point)
    expected = {a for a in range(s.n) if hom_map[a] in target}
    return expected == set(preimage) and _is_ideal_set(s, expected)


def verify_kernel_upset_gap(s, t, hom_map, s_points, t_points):
    """Recompute, with raw set logic, that the induced image of the listed
    spectra differs from the kernel's up-set."""
    ker = {a for a in range(s.n) if hom_map[a] == 0}
    s_pts = _point_sets(s_points)
    image = []
    for q in _point_sets(t_points):
        pre = {a for a in range(s.n) if hom_map[a] in q}
        if pre not in s_pts:
            return False
        image.append(pre)
    ker_up = [p for p in s_pts if ker <= p]
    return sorted(map(sorted, image)) != sorted(map(sorted, ker_up))
