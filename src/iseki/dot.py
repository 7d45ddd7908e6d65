"""Graphviz export of the specialization order of a spectrum.

Points are ordered by ideal inclusion; the emitted digraph is the Hasse
diagram (an edge x -> y means x is properly contained in y with nothing
in between).  Node order follows the spectrum's point order, so output
is deterministic.
"""


def export_dot(spec):
    points = spec.points
    lines = ["digraph specialization {"]
    for i, p in enumerate(points):
        label = "{" + ",".join(str(m) for m in p.members) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i == j or (a.mask & b.mask) != a.mask or a.mask == b.mask:
                continue
            covered = any(
                k != i
                and k != j
                and (a.mask & c.mask) == a.mask
                and (c.mask & b.mask) == c.mask
                and c.mask not in (a.mask, b.mask)
                for k, c in enumerate(points)
            )
            if not covered:
                lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
