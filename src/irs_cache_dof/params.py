"""Scalar network parameters shared by every stage of the toolkit."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from numbers import Integral


class ParameterError(ValueError):
    """A parameter combination violates the model's standing assumptions."""


def as_integer(value: object, name: str) -> int:
    """``value`` as a Python int: any integer, numpy's included, while a
    bool or a non-integer raises a :class:`ParameterError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_count(value: object, name: str) -> int:
    """``value`` as a nonnegative Python int (:func:`as_integer`), or a
    :class:`ParameterError` naming ``name``."""
    count = as_integer(value, name)
    if count < 0:
        raise ParameterError(f"{name} must be nonnegative, got {value!r}")
    return count


def as_index(value: object) -> int | None:
    """The int that ``value`` equals under ``==`` (1 for ``1.0``, ``Fraction(1)`` or ``True``), or
    None: parameters are checked by type (:func:`as_integer`), plan fields by equality."""
    try:
        index = int(value.real)
    except (AttributeError, TypeError, ValueError, OverflowError):
        return None
    return index if index == value else None


def slot_init(cls: type) -> type:
    """Give the frozen slotted dataclass ``cls`` an ``__init__`` that stores
    each field through its slot's member descriptor, not through
    ``object.__setattr__`` (which looks each name up on the type again),
    then calls ``__post_init__`` when ``cls`` defines one. The parameters
    are the fields' names, order and defaults, so every other behaviour of
    the class stays the dataclass's own. Apply it above
    ``@dataclass(frozen=True, slots=True)``, to a class whose fields are all
    positional ``init`` fields without a ``default_factory``."""
    fs = fields(cls)
    namespace = {f"_set_{f.name}": cls.__dict__[f.name].__set__ for f in fs}
    body = [f"_set_{f.name}(self, {f.name})" for f in fs]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(f.name for f in fs)}):\n    " + "\n    ".join(body), namespace)
    init = namespace["__init__"]
    # a field with a default follows every field without one, as in the dataclass
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@dataclass(frozen=True)
class SystemParams:
    """Configuration of the cache-aided interference network.

    ``mu_t`` and ``mu_r`` are the normalized cache sizes ``K_T*M_T/N`` and
    ``K_R*M_R/N``; the per-node cache sizes in files (``m_t_files``,
    ``m_r_files``) are derived from them and may be fractional, so they are
    kept as exact rationals. When ``mu_t >= 2`` the transmitters must split
    into ``m_groups`` disjoint groups of ``mu_t``.
    """

    k_t: int
    k_r: int
    n_files: int
    f_packets: int
    mu_t: int
    mu_r: int
    q_elements: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, as_integer(getattr(self, f.name), f.name))
        if self.k_t < 1:
            raise ParameterError("k_t must be at least 1")
        if self.k_r < 2:
            raise ParameterError("k_r must be at least 2 (mu_r <= k_r - 1 requires it)")
        if not 1 <= self.mu_t <= self.k_t:
            raise ParameterError(f"mu_t must lie in [1, k_t]; got mu_t={self.mu_t}, k_t={self.k_t}")
        if not 1 <= self.mu_r <= self.k_r - 1:
            raise ParameterError(f"mu_r must lie in [1, k_r - 1]; got mu_r={self.mu_r}, k_r={self.k_r}")
        if self.n_files < self.k_r:
            raise ParameterError(
                f"n_files >= k_r is required so every receiver can request a distinct file; "
                f"got n_files={self.n_files}, k_r={self.k_r}"
            )
        if self.f_packets < 1:
            raise ParameterError("f_packets must be at least 1")
        if self.q_elements < 0:
            raise ParameterError("q_elements must be nonnegative")
        if self.mu_t >= 2 and self.k_t % self.mu_t != 0:
            raise ParameterError(
                f"K_T must equal M*mu_t when mu_t >= 2; got k_t={self.k_t}, mu_t={self.mu_t}"
            )

    @property
    def m_groups(self) -> int:
        """Number of disjoint transmitter groups of size ``mu_t``."""
        return self.k_t // self.mu_t

    @property
    def m_t_files(self) -> Fraction:
        """Transmitter cache size in files: mu_t * N / K_T."""
        return Fraction(self.mu_t * self.n_files, self.k_t)

    @property
    def m_r_files(self) -> Fraction:
        """Receiver cache size in files: mu_r * N / K_R."""
        return Fraction(self.mu_r * self.n_files, self.k_r)

    @property
    def transmitters(self) -> range:
        return range(1, self.k_t + 1)

    @property
    def receivers(self) -> range:
        return range(1, self.k_r + 1)
