"""Graphviz export of the specialization order of a spectrum.

Points are ordered by ideal inclusion; the emitted digraph is the Hasse
diagram (an edge x -> y means x is properly contained in y with nothing
in between).  Node order follows the spectrum's point order, so output
is deterministic.
"""

from .ideals import mask_members


def export_dot(spec):
    points = spec.points
    lines = ["digraph specialization {"]
    for i, p in enumerate(points):
        label = "{" + ",".join(map(str, mask_members(spec.semiring, p))) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i == j or (a & b) != a:
                continue
            covered = any(
                k not in (i, j) and (a & c) == a and (c & b) == c
                for k, c in enumerate(points)
            )
            if not covered:
                lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
