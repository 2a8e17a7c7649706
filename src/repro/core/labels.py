"""Label tables: the canonical edge labels of one structure bucket.

Every transformation graph of a structure bucket (Section 5.1) draws its
edge labels from the bucket's :class:`LabelTable`.  The table hands out
one canonical instance per distinct position function and string
function, gives each string function a dense int id, and precomputes its
:func:`~repro.core.functions.label_sort_key`.  Graph construction looks
labels up by small structural keys (position ids, constant text) instead
of building and hashing nested dataclasses; the inverted index keys its
postings by label id; the pivot search prunes, joins, dedups and orders
on ints and cached keys, and turns ids back into label objects only for
a finished path.

Graphs built against another table (or none, as the optimal-partition
solver and the tests build them) still meet in one index:
:meth:`LabelTable.intern` maps a foreign label to the id of the equal
canonical one.

The table lives and dies with its bucket's index; there is no
module-global cache.  Nothing it computes is stored on the label
instances, so a pickled label or program carries no per-process ``str``
hash into another process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .functions import ConstantStr, StringFunction, SubStr, label_sort_key
from .positions import ConstPos, MatchPos, PositionFunction, position_sort_key


class LabelTable:
    """Canonical position functions and string functions, by dense id."""

    def __init__(self) -> None:
        #: label id -> canonical string function
        self.labels: List[StringFunction] = []
        #: label id -> its ``label_sort_key``
        self.keys: List[Tuple] = []
        #: position id -> canonical position function
        self.positions: List[PositionFunction] = []
        #: position id -> its static-order key (Appendix E)
        self.position_keys: List[Tuple] = []
        self._label_parts: Dict[object, int] = {}  # structural key -> id
        self._position_parts: Dict[object, int] = {}
        self._terms: Dict[object, int] = {}
        self._term_list: List[object] = []

    def __len__(self) -> int:
        return len(self.labels)

    # -- terms and positions -----------------------------------------------

    def term(self, term) -> int:
        """Dense id of a vocabulary term (canonical by equality)."""
        tid = self._terms.get(term)
        if tid is None:
            tid = self._terms[term] = len(self._term_list)
            self._term_list.append(term)
        return tid

    def match_pos(self, tid: int, k: int, direction: str) -> int:
        """Position id of ``MatchPos(term tid, k, direction)``."""
        parts = (tid, k, direction)
        pid = self._position_parts.get(parts)
        if pid is None:
            pid = self._add_position(
                parts, MatchPos(self._term_list[tid], k, direction)
            )
        return pid

    def const_pos(self, k: int) -> int:
        """Position id of ``ConstPos(k)``."""
        pid = self._position_parts.get(k)
        if pid is None:
            pid = self._add_position(k, ConstPos(k))
        return pid

    def _add_position(self, parts, fn: PositionFunction) -> int:
        pid = self._position_parts[parts] = len(self.positions)
        self.positions.append(fn)
        self.position_keys.append(position_sort_key(fn))
        return pid

    # -- string functions --------------------------------------------------

    def substr(self, left: int, right: int) -> int:
        """Label id of ``SubStr`` over two position ids."""
        parts = (left, right)
        lid = self._label_parts.get(parts)
        if lid is None:
            lid = self._add_label(
                parts, SubStr(self.positions[left], self.positions[right])
            )
        return lid

    def constant(self, text: str) -> int:
        """Label id of ``ConstantStr(text)``."""
        lid = self._label_parts.get(text)
        if lid is None:
            lid = self._add_label(text, ConstantStr(text))
        return lid

    def affix(self, kind: type, tid: int, k: int) -> int:
        """Label id of ``Prefix``/``Suffix`` (``kind``) of term ``tid``."""
        parts = (kind, tid, k)
        lid = self._label_parts.get(parts)
        if lid is None:
            lid = self._add_label(parts, kind(self._term_list[tid], k))
        return lid

    def _add_label(self, parts, label: StringFunction) -> int:
        lid = self._label_parts[parts] = len(self.labels)
        self.labels.append(label)
        self.keys.append(label_sort_key(label))
        return lid

    # -- foreign labels ----------------------------------------------------

    def intern(self, label: StringFunction) -> int:
        """Id of ``label``, registering it on first sight.

        Structural identity (term, match index, direction, text) is
        exactly the labels' dataclass equality, so an equal label built
        elsewhere maps to the same id as this table's own instance.
        """
        if isinstance(label, SubStr):
            return self.substr(
                self._intern_position(label.left),
                self._intern_position(label.right),
            )
        if isinstance(label, ConstantStr):
            return self.constant(label.text)
        return self.affix(type(label), self.term(label.term), label.k)

    def _intern_position(self, fn: PositionFunction) -> int:
        if isinstance(fn, MatchPos):
            return self.match_pos(self.term(fn.term), fn.k, fn.direction)
        return self.const_pos(fn.k)

    def find(self, label: StringFunction) -> Optional[int]:
        """Id of ``label`` if the table knows it, without registering."""
        if isinstance(label, SubStr):
            left = self._find_position(label.left)
            right = self._find_position(label.right)
            if left is None or right is None:
                return None
            return self._label_parts.get((left, right))
        if isinstance(label, ConstantStr):
            return self._label_parts.get(label.text)
        tid = self._terms.get(label.term)
        if tid is None:
            return None
        return self._label_parts.get((type(label), tid, label.k))

    def _find_position(self, fn: PositionFunction) -> Optional[int]:
        if isinstance(fn, MatchPos):
            tid = self._terms.get(fn.term)
            if tid is None:
                return None
            return self._position_parts.get((tid, fn.k, fn.direction))
        return self._position_parts.get(fn.k)
