"""Systematic Reed–Solomon erasure code over the prime field Z_p.

A (data + parity, data) MDS code: any ``data`` of the ``data + parity``
coded words reconstruct the original.  Words here are *vectors* of Z_p
elements (one SEM-PDP block each), coded element-wise.

Encoding views the i-th elements of the data blocks as values of a
degree-(data−1) polynomial at abscissae 1..data and evaluates it at
data+1..data+parity (systematic: data words pass through unchanged).
Decoding interpolates from any ``data`` surviving words.  Everything is
Lagrange interpolation over Z_p — the same primitive Shamir sharing uses,
which is why this substrate costs so little extra code.
"""

from __future__ import annotations

from repro.mathkit.ntheory import inverse_mod


class ReedSolomonCode:
    """An (n, k) = (data + parity, data) systematic RS code over Z_p."""

    def __init__(self, data: int, parity: int, p: int):
        if data < 1 or parity < 0:
            raise ValueError("need data >= 1 and parity >= 0")
        if p <= data + parity:
            raise ValueError("field too small for the requested code length")
        self.data = data
        self.parity = parity
        self.p = p
        # Abscissa of coded word j is j + 1 (0 is reserved; it keeps the
        # Lagrange formulas nonsingular).
        self._parity_rows = [
            self._lagrange_row(self.data + extra) for extra in range(parity)
        ]

    @property
    def length(self) -> int:
        return self.data + self.parity

    # -- internals -----------------------------------------------------------
    def _lagrange_row(self, target_index: int) -> list[int]:
        """Coefficients c_i with  word[target] = Σ c_i · word[i]  (i < data)."""
        p = self.p
        xs = [i + 1 for i in range(self.data)]
        x_t = target_index + 1
        row = []
        for j, xj in enumerate(xs):
            numerator, denominator = 1, 1
            for l, xl in enumerate(xs):
                if l == j:
                    continue
                numerator = numerator * (x_t - xl) % p
                denominator = denominator * (xj - xl) % p
            row.append(numerator * inverse_mod(denominator, p) % p)
        return row

    # -- API --------------------------------------------------------------------
    def encode(self, words: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Append ``parity`` coded words to ``data`` input words.

        Each word is a tuple of Z_p elements; all words must share a width.
        """
        if len(words) != self.data:
            raise ValueError(f"expected {self.data} data words, got {len(words)}")
        widths = {len(w) for w in words}
        if len(widths) != 1:
            raise ValueError("all words must have the same element count")
        p = self.p
        coded = list(words)
        for row in self._parity_rows:
            parity_word = tuple(
                sum(c * word[e] for c, word in zip(row, words)) % p
                for e in range(next(iter(widths)))
            )
            coded.append(parity_word)
        return coded

    def decode(self, available: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Reconstruct the ``data`` original words from any ``data`` coded
        words, given as {coded index: word}.

        Raises:
            ValueError: with fewer than ``data`` distinct surviving words.
        """
        if len(available) < self.data:
            raise ValueError(
                f"need at least {self.data} surviving words, have {len(available)}"
            )
        if any(not 0 <= i < self.length for i in available):
            raise ValueError("coded index out of range")
        p = self.p
        chosen = sorted(available)[: self.data]
        xs = [i + 1 for i in chosen]
        words = [available[i] for i in chosen]
        width = len(words[0])
        # Lagrange basis from the survivors to each systematic abscissa.
        originals = []
        for target in range(self.data):
            if target in available:
                originals.append(tuple(available[target]))
                continue
            x_t = target + 1
            coeffs = []
            for j, xj in enumerate(xs):
                numerator, denominator = 1, 1
                for l, xl in enumerate(xs):
                    if l == j:
                        continue
                    numerator = numerator * (x_t - xl) % p
                    denominator = denominator * (xj - xl) % p
                coeffs.append(numerator * inverse_mod(denominator, p) % p)
            originals.append(
                tuple(
                    sum(c * word[e] for c, word in zip(coeffs, words)) % p
                    for e in range(width)
                )
            )
        return originals
