"""The types built once per subfile, delivery, block, block record and
sweep point are slotted: no instance carries a ``__dict__``, and each is
still frozen, validated, replaced, pickled, deep-copied, compared and hashed
as a plain frozen dataclass is. Their one ``__init__`` comes from
:func:`params.slot_init` and takes exactly the dataclass fields."""

import copy
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from irs_cache_dof.analytics import AXIS_Q, SUFFICIENT_Q, DofPoint, sweep
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import SubfileId
from irs_cache_dof.scheduler import BlockPlan, Delivery
from irs_cache_dof.simulator import BlockRecord, SimOptions, build_schedule, run_episode

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)
#: ordered arrangements: a subfile's transmitter-side index is an int, not a subset
ORDERED = SystemParams(k_t=4, k_r=5, n_files=5, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
CASES = {
    "thm1": (EX, "thm1", SimOptions()),
    "thm2-ordered": (ORDERED, "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q, l_size=1)),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def objects(request):
    """Every block, delivery, subfile and block record of one episode, and
    the points of a sweep over the network's element budgets, by type name."""
    params, regime, options = CASES[request.param]
    schedule = build_schedule(params, regime, options)
    plans = list(schedule.blocks)
    deliveries = [dl for plan in plans for dl in plan.deliveries]
    records = list(run_episode(params, regime, 3, options, schedule=schedule).blocks)
    return {
        "SubfileId": [dl.subfile for dl in deliveries],
        "Delivery": deliveries,
        "BlockPlan": plans,
        "BlockRecord": records,
        "DofPoint": sweep(AXIS_Q, range(params.q_elements + 3), params, options.strictness),
    }


def _values(obj):
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def test_no_instance_has_a_dict(objects):
    for name, instances in objects.items():
        assert instances and all(type(obj).__name__ == name for obj in instances)
        assert not any(hasattr(obj, "__dict__") for obj in instances), name
        with pytest.raises(AttributeError):
            object.__setattr__(instances[0], "extra", 1)


def test_assignment_raises(objects):
    for instances in objects.values():
        obj = instances[0]
        for name, value in _values(obj).items():
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, value)
        # a name that is no field: CPython's frozen __setattr__ of a slotted
        # class raises TypeError here (3.11 to 3.13), not FrozenInstanceError
        with pytest.raises((FrozenInstanceError, TypeError)):
            obj.extra = 1
        with pytest.raises(FrozenInstanceError):
            delattr(obj, fields(obj)[0].name)


def test_equal_fields_give_equal_hashes_and_copies(objects):
    for instances in objects.values():
        for obj in instances[:: max(1, len(instances) // 7)]:
            twin = type(obj)(**_values(obj))
            assert twin == obj and hash(twin) == hash(obj) and twin is not obj
            assert replace(obj) == obj and replace(obj, **_values(obj)) == obj
            for other in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
                assert other == obj and hash(other) == hash(obj) and type(other) is type(obj)
                assert not hasattr(other, "__dict__")
        assert len(set(instances)) == len({tuple(_values(obj).values()) for obj in instances})


def test_replace_changes_one_field_and_still_validates(objects):
    sub, delivery, plan, record = (objects[name][-1] for name in ("SubfileId", "Delivery", "BlockPlan", "BlockRecord"))
    assert replace(sub, file=sub.file + 1) != sub and replace(sub, file=sub.file + 1).rx_set == sub.rx_set
    assert replace(delivery, intended_rx=0).subfile is delivery.subfile
    assert replace(plan, block_index=0) != plan and replace(plan, block_index=0).null_links == plan.null_links
    assert replace(record, delivered=-1).decode_errors is record.decode_errors
    with pytest.raises(ValueError, match="receiver index groups must be disjoint"):
        replace(sub, zf_set=sub.rx_set)


def test_subfiles_order_as_their_field_tuples(objects):
    subfiles = sorted(set(objects["SubfileId"]), key=lambda sub: tuple(_values(sub).values()))
    assert sorted(reversed(subfiles)) == subfiles
    assert all(a < b and b > a and a <= b for a, b in zip(subfiles, subfiles[1:]))


@pytest.mark.parametrize("cls", [SubfileId, Delivery, BlockPlan, BlockRecord, DofPoint], ids=lambda cls: cls.__name__)
def test_constructor_takes_exactly_the_fields(cls):
    """The signature lists the dataclass fields in order, each a
    positional-or-keyword parameter with the field's default."""
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(cls)
    ]


def test_positional_and_keyword_builds_store_the_same_fields(objects):
    for instances in objects.values():
        for obj in instances[:: max(1, len(instances) // 7)]:
            values = _values(obj)
            for twin in (type(obj)(*values.values()), type(obj)(**values)):
                assert all(getattr(twin, name) is value for name, value in values.items())


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="receiver index groups must be disjoint"):
        SubfileId(1, (1,), (1, 2), (2, 3))
    with pytest.raises(ValueError, match="receiver index groups must be disjoint"):
        SubfileId(file=1, tx_index=2, rx_set=(1,), irs_set=(1,))
    point = dict(scheme="thm1", k_t=3, k_r=4, mu_t=Fraction(1), mu_r=Fraction(1), q_elements=6, l_size=1)
    for rate in (Fraction(5, 4), Fraction(-1, 4)):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            DofPoint(**point, sum_dof=4 * rate, per_user_dof=rate)
    with pytest.raises(ValueError, match="disagree"):
        DofPoint(*point.values(), Fraction(2), Fraction(3, 4))
    valid = DofPoint(*point.values(), Fraction(3), Fraction(3, 4))
    assert valid.strictness is None
    with pytest.raises(ValueError, match="disagree"):
        replace(valid, per_user_dof=Fraction(1))
