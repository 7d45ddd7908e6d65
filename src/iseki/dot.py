"""Graphviz export of the specialization order of a spectrum.

Points are ordered by ideal inclusion; the emitted digraph is the Hasse
diagram (an edge x -> y means x is properly contained in y with nothing
in between).  Node order follows the spectrum's point order, so output
is deterministic.
"""

from .ideals import mask_members


def export_dot(spec):
    """The upper covers of point i are the minimal points of up[i] - {i}:
    the j in it whose down-set (column j of ``up``, transposed) meets it
    in j alone.  A proper superset has a larger mask, so j > i."""
    up = spec.up
    down = [
        sum(1 << k for k, u in enumerate(up) if (u >> j) & 1) for j in range(len(up))
    ]
    lines = ["digraph specialization {"]
    for i, p in enumerate(spec.points):
        label = "{" + ",".join(map(str, mask_members(spec.semiring, p))) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i, u in enumerate(up):
        above = u & ~(1 << i)
        lines.extend(
            f"  p{i} -> p{j};"
            for j in range(i + 1, len(up))
            if (down[j] & above) == 1 << j
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
