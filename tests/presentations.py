"""The quiver presentations of the two algebras: arrows and relations, the
reference that ``tests/test_quiver.py`` evaluates in the built algebras.  No
command reads them, so they live with the tests.  ``zigzag_presentation``
presents ``quiver.build_zigzag_c`` and ``dual_presentation`` presents
``quiver.build_omega``, whose degree-one monomials ``arrow_images`` names.
"""

from __future__ import annotations

from dataclasses import dataclass

from hh2.quiver import BasedAlgebra, Combo, combo_add, monomial_name


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int
    j: int
    k: int


@dataclass(frozen=True)
class QuiverPresentation:
    """Vertices, arrows, and relations; words list arrows outermost first.

    A relation is a tuple of (word, coefficient) pairs whose paths all share
    one (source, target); it must evaluate to zero in the presented algebra.
    """
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[tuple[tuple[str, ...], int], ...], ...]

    def evaluate(self, alg: BasedAlgebra, images: dict[str, str] | None = None
                 ) -> list[Combo]:
        """Value of each relation in an algebra realizing the arrows.

        ``images`` maps arrow names to basis names when they differ (the
        monomial algebras name the degree-one monomials with their slots).
        """
        images = images or {}
        out = []
        for rel in self.relations:
            acc: Combo = {}
            for word, coeff in rel:
                val = alg.unit()
                for name in reversed(word):  # innermost arrow acts first
                    val = alg.mul({alg.index[images.get(name, name)]: 1}, val)
                combo_add(acc, val, coeff, alg.p)
            out.append(acc)
        return out


def zigzag_presentation(p: int) -> QuiverPresentation:
    arrows = tuple(Arrow(f"eta{m}", m, m + 1, 1, 0) for m in range(1, p)) + \
        tuple(Arrow(f"xi{m}", m + 1, m, 1, 0) for m in range(1, p))
    rels = [((("eta" + str(p - 1), "xi" + str(p - 1)), 1),)]  # loop at the top
    for m in range(1, p - 1):
        rels.append((((f"xi{m}", f"xi{m + 1}"), 1),))
        rels.append((((f"eta{m + 1}", f"eta{m}"), 1),))
    for v in range(2, p):  # the two loops at an inner vertex cancel
        rels.append((((f"eta{v - 1}", f"xi{v - 1}"), 1), ((f"xi{v}", f"eta{v}"), 1)))
    return QuiverPresentation(tuple(range(1, p + 1)), arrows, tuple(rels))


def dual_presentation(p: int) -> QuiverPresentation:
    arrows = tuple(Arrow(f"y{m}", m, m + 1, -1, 1) for m in range(1, p)) + \
        tuple(Arrow(f"x{m}", m + 1, m, -1, 1) for m in range(1, p))
    rels = [((("x1", "y1"), 1),)]  # up-down loop at the bottom vanishes
    for v in range(2, p):  # up-down equals down-up at inner vertices
        rels.append((((f"x{v}", f"y{v}"), 1), ((f"y{v - 1}", f"x{v - 1}"), -1)))
    return QuiverPresentation(tuple(range(1, p + 1)), arrows, tuple(rels))


def arrow_images(p: int) -> dict[str, str]:
    """The basis name in Omega of each arrow of ``dual_presentation(p)``."""
    images = {}
    for m in range(1, p):
        images[f"y{m}"] = monomial_name(m, 0, 1)
        images[f"x{m}"] = monomial_name(m + 1, 1, 0)
    return images
