"""The built-in rules as plain data: names, descriptions and the default battery.

``BUILTINS`` maps each built-in's name to its one-line description and, for
a rule that takes a basis, the basis it takes in ``builtin_rules()``; its
order is that battery's order.  A description of a rule that takes a basis
is a template with a ``{basis}`` field, filled with the basis label.

This module imports neither numpy nor another ``ifmsim`` module, so
``ifmsim rules list`` prints the table without loading numpy;
``ifmsim.rules`` builds every built-in's name and description from it.
"""

from __future__ import annotations

from typing import NamedTuple


class Builtin(NamedTuple):
    description: str
    basis: str | None = None  # the basis label in builtin_rules(); None: takes no basis


BUILTINS = {
    "probe-rigid": Builtin(
        "probe keeps its state; the object jumps to the orthogonal partner state"),
    "object-rigid": Builtin(
        "object keeps its state; the probe jumps to the orthogonal partner state"),
    "singlet": Builtin(
        "survivor is the fixed maximally entangled anti-aligned pair, independent of input"),
    "random-mix": Builtin("survivor is the maximally mixed two-particle state"),
    "preferred-basis": Builtin(
        "survivor dephases onto the anti-aligned cells of basis {basis}", "SIGMA"),
    "coherent-projection": Builtin(
        "linear channel removing the aligned components in basis {basis}; "
        "scatter probability is the removed weight", "XY"),
}


def spelled(base: str, basis: str | None = None) -> tuple[str, str]:
    """Name and description of built-in ``base``, at basis label ``basis`` if it takes one."""
    description = BUILTINS[base].description
    if basis is None:
        return base, description
    return f"{base}:{basis.lower()}", description.format(basis=basis)
