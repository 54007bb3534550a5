"""Variable bookkeeping for the Weyl-algebra and parameter layers.

A registry fixes three user-facing name classes: the geometric variables
x_1..x_n, the shift variables s_1..s_p (printed plain "s" when p = 1) and
the parameters a_1..a_m.  Names starting with an underscore are reserved
for internal auxiliaries (the _dt block of the annihilator
construction), so user names may never start with "_".  Each x name also
induces a derivative name "d" + x used by the operator parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput


def s_names(p: int):
    if p < 0:
        raise InvalidInput("p must be non-negative")
    if p == 1:
        return ("s",)
    return tuple("s%d" % (j + 1) for j in range(p))


@dataclass(frozen=True)
class VarRegistry:
    """Validated variable names for one problem instance."""

    x: tuple
    s: tuple
    a: tuple = ()

    def __post_init__(self):
        for group in (self.x, self.s, self.a):
            for name in group:
                if not name or not isinstance(name, str):
                    raise InvalidInput("variable names must be non-empty strings")
                if name.startswith("_"):
                    raise InvalidInput(
                        "names starting with '_' are reserved: %r" % name
                    )
                if not name.replace("_", "a").isalnum() or name[0].isdigit():
                    raise InvalidInput("invalid variable name %r" % name)
        everything = list(self.x) + list(self.s) + list(self.a) + list(self.d_names())
        if len(set(everything)) != len(everything):
            raise InvalidInput(
                "variable name collision among x/s/a/derivative names: %r"
                % (everything,)
            )

    @staticmethod
    def create(x_names, p: int, a_names=()):
        return VarRegistry(tuple(x_names), s_names(p), tuple(a_names))

    @property
    def n(self):
        return len(self.x)

    @property
    def p(self):
        return len(self.s)

    @property
    def m(self):
        return len(self.a)

    def d_names(self):
        """Derivative names paired with the x block."""
        return tuple("d" + name for name in self.x)
