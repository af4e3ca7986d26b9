"""A stand-in for ``engine.Draws`` with uniforms the test chooses."""

from __future__ import annotations


class FixedDraws:
    """Hands out ``uniforms`` in turn, cycling, to every kind of draw but
    ``dual``, which returns ``dual`` without taking one: the default, 1.0,
    never fires.  ``pool_entry`` picks the first entry."""

    def __init__(self, uniforms, dual: float = 1.0):
        self.uniforms = list(uniforms)
        self.i = 0
        self._dual = dual

    def _next(self) -> float:
        u = self.uniforms[self.i % len(self.uniforms)]
        self.i += 1
        return u

    max_offers = center = patient = failure = relist = immunization = _next

    def dual(self) -> float:
        return self._dual

    def pool_entry(self, n: int) -> int:
        return 0
