"""The dense block kernel against the dictionary-based reference in
``reference_block.py``, and the exactness properties the kernel keeps:
single-draw channels, batched idle-group solves and per-receiver decodes
equal to their unbatched forms bit for bit, and episodes run chunk by
chunk through stacked stages, each chunk's front in pieces (in spans on
threads where the surface solves take the least-squares path), equal to
blocks run one at a time."""

import multiprocessing
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import reference_block
from reference_block import reference_channels, reference_simulate_block

from irs_cache_dof import channel, simulator
from irs_cache_dof.analytics import STRICT_Q, SUFFICIENT_Q
from irs_cache_dof.channel import SingularChannelError, block_rng, equivalent_channel, sample_block_channels
from irs_cache_dof.irs import required_nulls, solve_irs
from irs_cache_dof.lowering import ShapeMismatchError
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import make_schedule, worst_case_demand
from irs_cache_dof.simulator import (
    SimOptions,
    _symbols_for,
    build_schedule,
    estimate_dof_slope,
    receiver_decode,
    run_episode,
    simulate_block,
    transmit_block,
)
from irs_cache_dof.zf import beamformers_for_block

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)

#: name -> (parameters, regime, options)
NETWORKS = {
    "thm1-worked-example": (EX, "thm1", SimOptions()),
    "thm1-partial": (SystemParams(3, 4, 12, 12, 1, 1, 2), "thm1", SimOptions()),
    "thm1-mu_r2": (SystemParams(4, 5, 5, 1, 1, 2, 2), "thm1", SimOptions()),
    "thm1-disable-irs": (EX, "thm1", SimOptions(disable_irs=True)),
    "thm1-noise": (EX, "thm1", SimOptions(noise_variance=1e-3, success_threshold=1e-1)),
    "thm1-l0": (EX, "thm1", SimOptions(l_size=0)),
    "thm1-minnorm": (SystemParams(5, 5, 5, 1, 1, 1, 10), "thm1", SimOptions()),
    "thm2-partition": (SystemParams(4, 4, 4, 1, 2, 1, 4), "thm2-partition", SimOptions(strictness=SUFFICIENT_Q)),
    "thm2-strict-infeasible": (
        SystemParams(4, 4, 4, 1, 2, 1, 2),
        "thm2-partition",
        SimOptions(strictness=STRICT_Q, l_size=1),
    ),
    "thm2-ordered-partial": (SystemParams(4, 5, 5, 1, 2, 1, 4), "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q)),
    "thm2-ordered-mu3": (SystemParams(6, 5, 5, 1, 3, 1, 12), "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q)),
    "thm2-disable-irs-noise": (
        SystemParams(4, 5, 5, 1, 2, 1, 4),
        "thm2-partition",
        SimOptions(strictness=SUFFICIENT_Q, disable_irs=True, noise_variance=1e-6),
    ),
}

#: agreement the kernel must keep with the reference on every O(1) number
TOLERANCE = 1e-12


@pytest.mark.parametrize("name", NETWORKS)
def test_simulate_block_matches_reference(name):
    params, regime, options = NETWORKS[name]
    schedule = build_schedule(params, regime, options)
    for seed in (0, 7):
        for plan in schedule.blocks[:120]:
            got = simulate_block(plan, params, seed, options)
            want = reference_simulate_block(plan, params, seed, options)
            assert (got.delivered, got.irs_status, got.n_nulls) == (want.delivered, want.irs_status, want.n_nulls)
            assert abs(got.irs_residual - want.irs_residual) <= TOLERANCE
            assert got.channel_scale == want.channel_scale
            assert [rx for rx, _ in got.decode_errors] == [rx for rx, _ in want.decode_errors]
            for (_, e_got), (_, e_want) in zip(got.decode_errors, want.decode_errors):
                assert e_got == e_want or abs(e_got - e_want) <= TOLERANCE


def test_strict_budget_case_is_infeasible():
    params, regime, options = NETWORKS["thm2-strict-infeasible"]
    plan = build_schedule(params, regime, options).blocks[0]
    assert simulate_block(plan, params, 0, options).irs_status == "infeasible"


@pytest.mark.parametrize("block", [1, 2, 77])
def test_single_draw_channels_equal_three_draws(block):
    for params in (EX, SystemParams(6, 6, 6, 1, 2, 1, 12), SystemParams(2, 3, 3, 1, 1, 1, 0)):
        got, want = sample_block_channels(params, block, 5), reference_channels(params, block, 5)
        for leg in ("direct", "tx_to_irs", "irs_to_rx"):
            assert np.array_equal(getattr(got, leg), getattr(want, leg))


def test_block_rng_keeps_the_tuple_entropy_streams():
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
        for block, stream in ((0, 0), (1, 2), (2**33 + 1, 1)):
            want = np.random.default_rng(np.random.SeedSequence(entropy=(seed, block, stream)))
            assert np.array_equal(block_rng(seed, block, stream).standard_normal(6), want.standard_normal(6))
    with pytest.raises(ValueError):
        block_rng(-1, 0)


def _block(params, regime, options, index, seed):
    plan = build_schedule(params, regime, options).blocks[index]
    ch = sample_block_channels(params, plan.block_index, seed)
    cfg, _ = solve_irs(ch, required_nulls(plan))
    h_eq = equivalent_channel(ch, cfg)
    beams = beamformers_for_block(plan, h_eq, params.mu_t)
    symbols = _symbols_for(plan, seed)
    return plan, h_eq, beams, symbols


@pytest.mark.parametrize("name", ["thm2-ordered-partial", "thm2-ordered-mu3"])
def test_batched_idle_solves_equal_single_solves(name):
    params, regime, options = NETWORKS[name]
    for index in range(10):
        plan, h_eq, beams, _ = _block(params, regime, options, index, seed=3)
        lead = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
        assert len(plan.deliveries) > lead
        for dl, row in zip(plan.deliveries[lead:], beams.weights[lead:]):
            single = reference_block._single_zf(h_eq, dl.serving_txs, dl.intended_rx, plan.zf_rxs)
            assert np.array_equal(row, single)


@pytest.mark.parametrize("name", ["thm1-worked-example", "thm2-ordered-mu3"])
def test_block_decode_equals_per_receiver_decodes(name):
    """``simulate_block`` decodes every receiver in one call; calling
    ``receiver_decode`` once per receiver gives the same residuals exactly."""
    params, regime, options = NETWORKS[name]
    for index in range(5):
        plan, h_eq, beams, symbols = _block(params, regime, options, index, seed=11)
        y = h_eq @ transmit_block(plan, beams, symbols, params.k_t)
        record = simulate_block(plan, params, 11, options)
        singles = [
            (dl.intended_rx, receiver_decode(y[dl.intended_rx - 1], dl.intended_rx, plan, h_eq, beams, symbols)[1])
            for dl in plan.deliveries
        ]
        assert tuple(singles) == record.decode_errors


def _chunks_of(monkeypatch, params, blocks):
    """Make an episode's front run in pieces of ``blocks`` blocks."""
    monkeypatch.setattr(simulator, "FRONT_CHUNK_BYTES", blocks * simulator._block_bytes(params))


@pytest.mark.parametrize("name", NETWORKS)
def test_chunked_episode_equals_blocks_one_at_a_time(monkeypatch, name):
    """``run_episode`` runs the front in stacked pieces (7 blocks here, so
    piece boundaries fall inside every schedule); every record equals the
    block run alone and the reference's, bit for bit, whether every chunk
    draws through re-keyed streams or through ``block_rng``."""
    params, regime, options = NETWORKS[name]
    schedule = build_schedule(params, regime, options)
    _chunks_of(monkeypatch, params, 7)
    plans = schedule.blocks[:60]
    assert len(plans) > 7
    for seed, crossover in _both_sides_of_the_crossover((0, 7)):
        monkeypatch.setattr(channel, "STREAM_CROSSOVER", crossover)
        episode = run_episode(params, regime, seed, options, schedule=schedule)
        for plan, record in zip(plans, episode.blocks):
            alone = simulate_block(plan, params, seed, options)
            want = reference_simulate_block(plan, params, seed, options)
            assert record == alone
            assert (record.delivered, record.irs_status) == (want.delivered, want.irs_status)
            assert record.n_nulls == want.n_nulls
            assert (record.irs_residual, record.channel_scale) == (want.irs_residual, want.channel_scale)
            assert record.decode_errors == want.decode_errors


#: name -> (parameters, regime, options) of networks whose surface solves take the least-squares path
_LEAST_SQUARES = {
    "thm1-minnorm": NETWORKS["thm1-minnorm"],
    "minnorm-10x10": (SystemParams(10, 10, 10, 1, 1, 1, 60), "thm1", SimOptions(noise_variance=1e-9)),
    "thm2-strict-infeasible": NETWORKS["thm2-strict-infeasible"],
}


@pytest.mark.parametrize("name", _LEAST_SQUARES)
def test_least_squares_spans_equal_blocks_one_at_a_time(monkeypatch, name):
    """With three usable CPUs and chunks of 20 blocks, a thread crossover of
    0 runs each chunk's front in three spans of 6, 7 and 7 blocks, each in
    front pieces of 4 blocks (so a piece also ends where its span does),
    and one no system reaches runs it in one span; either way every record
    equals the block run alone and the reference's, bit for bit."""
    params, regime, options = _LEAST_SQUARES[name]
    built = build_schedule(params, regime, options)
    schedule = replace(built, blocks=built.blocks[:60])
    _chunk_sizes(monkeypatch, front=4, back=20)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 3)
    calls, real = [], simulator._in_spans

    def recorded(run, rows, n_spans):
        calls.append((len(rows), n_spans))
        return real(run, rows, n_spans)

    monkeypatch.setattr(simulator, "_in_spans", recorded)
    for crossover, spans in ((0, 3), (1 << 62, 1)):
        monkeypatch.setattr(simulator, "THREAD_CROSSOVER", crossover)
        for seed in (0, 7):
            calls.clear()
            episode = run_episode(params, regime, seed, options, schedule=schedule)
            assert (20, spans) in calls and all(n_spans == min(n_blocks, spans) for n_blocks, n_spans in calls)
            for plan, record in zip(schedule.blocks, episode.blocks, strict=True):
                assert record == simulate_block(plan, params, seed, options)
                want = reference_simulate_block(plan, params, seed, options)
                assert (record.delivered, record.irs_status, record.n_nulls) == (want.delivered, want.irs_status, want.n_nulls)
                assert (record.irs_residual, record.channel_scale) == (want.irs_residual, want.channel_scale)
                assert record.decode_errors == want.decode_errors


MINNORM = SystemParams(k_t=5, k_r=5, n_files=5, f_packets=1, mu_t=1, mu_r=1, q_elements=10)


def minnorm_rows(n_blocks):
    """The lowered rows of the first ``n_blocks`` blocks of the 5x5, L = 2
    schedule: 6 links on 10 elements, solved by minimum norm, and all of
    them one chunk of one front piece at the default sizes."""
    return make_schedule(MINNORM, worst_case_demand(MINNORM), 2).lowered[:n_blocks]


@pytest.fixture
def two_spans(monkeypatch):
    """Run the front of every least-squares chunk of two or more blocks in
    two spans, whatever the host's CPU count."""
    monkeypatch.setattr(simulator, "THREAD_CROSSOVER", 0)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)


def test_singular_blocks_in_two_spans_raise_the_lower(monkeypatch, two_spans):
    """Six blocks run their front in spans of blocks 0-2 and 3-5. A
    transmitter with a zero surface leg in blocks 1 and 4 fails both spans,
    and the error names block 1, as the serial loop's does; in block 4
    alone it names 4."""
    rows = minnorm_rows(6)
    pairs, real = rows.null_pairs, simulator.sample_channels

    def dead(blocks):
        leg_of = {rows.blocks[b]: pairs[b, 0, 0] for b in blocks}

        def sample(params, numbers, seed):
            ch = real(params, numbers, seed)
            legs = ch.tx_to_irs.copy()
            for s, block in enumerate(numbers):
                if block in leg_of:
                    legs[s, :, leg_of[block]] = 0.0
            return ch._replace(tx_to_irs=legs)

        return sample

    message = r"^seed 13, block {}: null-steering system rank \d+ < 6 equations; the episode aborts$"
    for blocks, named in (((1, 4), 1), ((4,), 4)):
        monkeypatch.setattr(simulator, "sample_channels", dead(blocks))
        with pytest.raises(SingularChannelError, match=message.format(rows.blocks[named])):
            list(simulator._chunks(rows, MINNORM, 13, SimOptions()))


@pytest.mark.parametrize("failing, raised", [({0}, 0), ({1}, 1), ({0, 1}, 0)], ids=["span-0", "span-1", "both"])
def test_span_errors_raise_the_lowest_after_every_span_finishes(monkeypatch, two_spans, failing, raised):
    """``lstsq`` raises on the first block of the failing spans (span 0 on
    the calling thread, span 1 on the pool, which is slowed): the lowest
    failing span's error is raised, once every span has stopped, and a span
    that does not fail solves all its three blocks."""
    rows = minnorm_rows(6)
    real, lock, running, finished = np.linalg.lstsq, threading.Lock(), Counter(), Counter()

    def lstsq(rows, rhs, rcond):
        span = int(threading.current_thread() is not threading.main_thread())
        with lock:
            running[span] += 1
        try:
            time.sleep(0.02 * span)
            if span in failing:
                raise np.linalg.LinAlgError(f"span {span}")
            return real(rows, rhs, rcond=rcond)
        finally:
            with lock:
                running[span] -= 1
                finished[span] += 1

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    with pytest.raises(np.linalg.LinAlgError, match=rf"^span {raised}$"):
        list(simulator._chunks(rows, MINNORM, 13, SimOptions()))
    assert running == Counter({0: 0, 1: 0})
    assert finished == Counter({span: 1 if span in failing else 3 for span in (0, 1)})


def _chunk_in_child(rows, send):
    (chunk,) = simulator._chunks(rows, MINNORM, 13, SimOptions())
    send.send((chunk.irs_residuals.tobytes(), chunk.y.tobytes()))
    send.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_solves_on_a_pool_of_its_own(two_spans):
    """A child forked after the pool is built inherits none of its threads;
    it builds its own and returns the parent's bits, not hanging on tasks
    no thread would run."""
    rows = minnorm_rows(6)
    (chunk,) = simulator._chunks(rows, MINNORM, 13, SimOptions())
    assert simulator._pool.cache_info().currsize == 1
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_chunk_in_child, args=(rows, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child's solve did not return in 60 s"
        assert receive.recv() == (chunk.irs_residuals.tobytes(), chunk.y.tobytes())
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


#: name -> (parameters, regime, options) of a network and whether its chunks run in spans
_SPAN_NETWORKS = {
    "square-132x132": (SystemParams(14, 14, 14, 1, 1, 2, 132), "thm1", SimOptions(), False),
    "square-12x12": (SystemParams(6, 6, 6, 1, 2, 1, 12), "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q), False),
    "surface-off-56x60": (SystemParams(10, 10, 10, 1, 1, 1, 60), "thm1", SimOptions(disable_irs=True), False),
    "minnorm-56x60": (SystemParams(10, 10, 10, 1, 1, 1, 60), "thm1", SimOptions(), True),
}


@pytest.mark.parametrize("name", _SPAN_NETWORKS)
def test_only_least_squares_chunks_submit_to_the_pool(monkeypatch, name):
    """With two usable CPUs and the default thread crossover, the first
    chunk of irs_square's network (132 links on 132 elements), of
    coop_small's (square 12x12 solves) and of a network whose 56 links on
    60 elements would take the least-squares path but whose surface is off
    submits nothing to the pool; with the surface on, that network's chunk
    submits its second span, and its columns equal those of one span."""
    params, regime, options, threaded = _SPAN_NETWORKS[name]
    rows = build_schedule(params, regime, options).lowered
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    submitted, real = [], simulator._pool

    class Counted:
        def submit(self, run, rows):
            submitted.append(rows.blocks)
            return real().submit(run, rows)

    monkeypatch.setattr(simulator, "_pool", Counted)
    chunk = next(simulator._chunks(rows, params, 3, options))
    assert len(submitted) == threaded and len(chunk.rows) > 1
    if threaded:
        assert submitted == [chunk.rows.blocks[len(chunk.rows) // 2 :]]
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
        alone = next(simulator._chunks(rows, params, 3, options))
        for got, want in zip(chunk[1:], alone[1:], strict=True):
            assert got.tobytes() == want.tobytes()


def test_schedule_of_two_lowered_shapes_is_refused():
    """A schedule spliced from an L = 1 and an L = 0 schedule holds blocks
    of two lowered shapes (square null-steering systems and none at all):
    an episode or a slope estimate on it raises at the first block of the
    second shape and returns nothing."""
    params = SystemParams(4, 5, 5, 1, 2, 1, 4)
    options = SimOptions(strictness=SUFFICIENT_Q)
    with_nulls, bare = (build_schedule(params, "thm2-ordered", replace(options, l_size=size)) for size in (1, 0))
    spliced = replace(with_nulls, blocks=with_nulls.blocks[:12] + bare.blocks[12:24])
    message = r"^block 13 lowers to header \(3, 2, 0, 1, 1\), not to the \(4, 2, 4, 1, 1\) of block 1;"
    with pytest.raises(ShapeMismatchError, match=message):
        run_episode(params, "thm2-ordered", 3, options, schedule=spliced)
    with pytest.raises(ShapeMismatchError, match=message):
        estimate_dof_slope(params, "thm2-ordered", 3, (1e3, 1e6), options, schedule=spliced)


def _both_sides_of_the_crossover(seeds):
    """Each seed with a stream crossover that sends every chunk, of any
    size, through re-keyed streams, and with one that sends none."""
    return [(seed, crossover) for seed in seeds for crossover in (1, 1 << 30)]


def _zero_streams(monkeypatch, zeroed):
    """Zero the channel draws (stream 0) of the given blocks, whichever path
    draws them: ``zeroed`` maps a block index to the number of leading
    normals of its draw set to zero, or None for all of them."""
    real = channel.fill_block_streams

    def patched(out, seed, blocks, stream, draw="standard_normal"):
        real(out, seed, blocks, stream, draw)
        for row, block in zip(out, blocks):
            if stream == 0 and block in zeroed:
                row[: zeroed[block]] = 0.0
        return out

    monkeypatch.setattr(channel, "fill_block_streams", patched)


def _chunk_sizes(monkeypatch, front, back):
    """Make an episode run in chunks of ``back`` blocks, each running its
    front in pieces of ``front`` blocks (or of the whole chunk, when that
    is shorter)."""
    monkeypatch.setattr(simulator, "FRONT_CHUNK_BYTES", front * back)
    monkeypatch.setattr(simulator, "_block_bytes", lambda params: back)
    monkeypatch.setattr(simulator, "_back_bytes", lambda params: front)


def _recorded_chunks(monkeypatch):
    """Record every chunk ``_chunks`` yields and the size of every front
    piece ``_front`` runs, in the order they run."""
    chunks, pieces = [], []
    real_chunks, real_front = simulator._chunks, simulator._front

    def recorded_chunks(*args):
        for chunk in real_chunks(*args):
            chunks.append(chunk)
            yield chunk

    def recorded_front(stack, *args):
        pieces.append(len(stack))
        return real_front(stack, *args)

    monkeypatch.setattr(simulator, "_chunks", recorded_chunks)
    monkeypatch.setattr(simulator, "_front", recorded_front)
    return chunks, pieces


class _ZeroDraw:
    """A channel generator that draws only zeros."""

    def standard_normal(self, size=None, *, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


#: front piece size -> the pieces each episode of 16 blocks in chunks of 5 runs
_PIECES = {2: [2, 2, 1] * 3 + [1], 7: [5, 5, 5, 1]}


@pytest.mark.parametrize(
    "params, regime, options, zeroed",
    [
        # the block at position 7 (the middle of the second chunk) has an
        # all-zero channel: with mu_t = 1 and L = 0 nothing is solved, and every
        # own gain is 0
        (EX, "thm1", SimOptions(l_size=0), 7),
        (
            SystemParams(4, 5, 5, 1, 2, 1, 4),
            "thm2-ordered",
            SimOptions(strictness=SUFFICIENT_Q, noise_variance=1e-6, success_threshold=1e-2),
            None,
        ),
    ],
)
def test_back_chunks_across_front_chunks_equal_the_reference(monkeypatch, params, regime, options, zeroed):
    """An episode runs in chunks of 5 blocks, each running its front in
    pieces of 2 (so a full chunk runs pieces of 2, 2 and 1), or in one
    piece when the front's size (7) exceeds the chunk; every chunk reads
    its rows as a view of the schedule's one lowered stack. Every record
    equals the reference's exactly."""
    built = build_schedule(params, regime, options)
    schedule = replace(built, blocks=built.blocks[:16])
    plans = schedule.blocks
    assert [plan.block_index for plan in plans] == list(range(1, 17))
    chunks, pieces = _recorded_chunks(monkeypatch)
    if zeroed is not None:
        real, zero_block = channel.block_rng, plans[zeroed].block_index
        assert not plans[zeroed].null_links

        def zero_draw(seed, block, stream=0):
            return _ZeroDraw() if (block, stream) == (zero_block, 0) else real(seed, block, stream)

        _zero_streams(monkeypatch, {zero_block: None})
        monkeypatch.setattr(reference_block, "block_rng", zero_draw)
    for front, expected_pieces in _PIECES.items():
        _chunk_sizes(monkeypatch, front=front, back=5)
        for seed, crossover in _both_sides_of_the_crossover((0, 7)):
            monkeypatch.setattr(channel, "STREAM_CROSSOVER", crossover)
            chunks.clear()
            pieces.clear()
            episode = run_episode(params, regime, seed, options, schedule=schedule)
            assert [len(chunk.rows) for chunk in chunks] == [5, 5, 5, 1]
            assert pieces == expected_pieces
            for start, chunk in zip(range(0, 16, 5), chunks):
                assert list(chunk.rows.blocks) == [plan.block_index for plan in plans[start : start + 5]]
                assert chunk.rows.delivery_rx.base is schedule.lowered.delivery_rx.base
                assert np.array_equal(chunk.rows.delivery_rx, schedule.lowered.delivery_rx[start : start + 5])
            for plan, record in zip(plans, episode.blocks, strict=True):
                assert record == reference_simulate_block(plan, params, seed, options)
            if zeroed is not None:
                lost = episode.blocks[zeroed]
                assert lost.delivered == 0 and {error for _, error in lost.decode_errors} == {np.inf}
            if options.noise_variance:
                assert 0 < episode.max_decode_error < options.success_threshold


#: name -> (parameters, regime, options, the status every block's surface solve has)
_TOTALS = {
    "surface-off": (EX, "thm1", SimOptions(disable_irs=True), "disabled"),
    "noise": (
        SystemParams(4, 5, 5, 1, 2, 1, 4),
        "thm2-ordered",
        SimOptions(strictness=SUFFICIENT_Q, noise_variance=1e-6, success_threshold=1e-3),
        "exact",
    ),
    "strict-infeasible": NETWORKS["thm2-strict-infeasible"] + ("infeasible",),
    "minnorm-10x10": _LEAST_SQUARES["minnorm-10x10"] + ("exact",),
    "zeroed-block": (EX, "thm1", SimOptions(l_size=0), "exact"),
}


@pytest.mark.parametrize("name", _TOTALS)
def test_episode_totals_equal_the_sums_and_maxima_of_its_records(monkeypatch, name):
    """An episode's totals, reduced from its chunks' columns (chunks of 5
    blocks here), equal those of its block records; its surface status is
    one value for every block, and every number in a record is a Python
    ``float`` or ``int``. The zeroed block's own gains vanish, so its
    residuals, and the episode's largest decode error, are infinite."""
    params, regime, options, status = _TOTALS[name]
    built = build_schedule(params, regime, options)
    schedule = replace(built, blocks=built.blocks[:96])
    _chunk_sizes(monkeypatch, front=3, back=5)
    if name == "zeroed-block":
        _zero_streams(monkeypatch, {schedule.blocks[7].block_index: None})
    for seed in (0, 9):
        episode = run_episode(params, regime, seed, options, schedule=schedule)
        records = episode.blocks
        assert len(records) == episode.h_blocks == min(96, built.h_blocks) > 5
        errors = [error for record in records for _, error in record.decode_errors]
        assert episode.total_deliveries == len(errors)
        assert episode.total_delivered == sum(record.delivered for record in records)
        assert episode.max_decode_error == max(errors)
        assert episode.max_irs_residual == max(record.irs_residual for record in records)
        assert episode.infeasible_blocks == sum(record.irs_status == "infeasible" for record in records)
        assert episode.infeasible_blocks in (0, episode.h_blocks)
        assert {record.irs_status for record in records} == {status}
        floats = [episode.max_decode_error, episode.max_irs_residual, *errors]
        floats += [value for record in records for value in (record.irs_residual, record.channel_scale)]
        assert {type(value) for value in floats} == {float}
        assert {type(rx) for record in records for rx, _ in record.decode_errors} == {int}
        if name == "zeroed-block":
            assert episode.max_decode_error == np.inf and records[7].delivered == 0
            assert all(error == np.inf for _, error in records[7].decode_errors)
        else:
            assert episode.max_decode_error < np.inf



def test_receiver_128_is_reported_from_an_int8_stack():
    """On a 1x128 network every lowered index fits in int8, receiver 128's
    being 127, so the stack is int8; the records still name receiver 128,
    on the episode path and the one-block path alike."""
    params = SystemParams(1, 128, 128, 128, 1, 1, 0)
    built = build_schedule(params, "thm1", SimOptions())
    plans = [plan for plan in built.blocks if any(dl.intended_rx == 128 for dl in plan.deliveries)][:4]
    schedule = replace(built, blocks=tuple(plans))
    assert schedule.lowered.delivery_rx.dtype == np.int8
    episode = run_episode(params, "thm1", 5, schedule=schedule)
    for plan, record in zip(plans, episode.blocks, strict=True):
        receivers = [rx for rx, _ in record.decode_errors]
        assert receivers == [dl.intended_rx for dl in plan.deliveries] and 128 in receivers
        assert simulate_block(plan, params, 5, SimOptions()) == record

def _counted_streams(monkeypatch):
    """Count the rows every (block, stream) pair draws: those of each
    ``fill_block_streams`` call, and the generators ``block_rng`` makes
    outside one."""
    counts, inside = Counter(), []
    real_fill, real_rng = channel.fill_block_streams, channel.block_rng

    def counted_fill(out, seed, blocks, stream, draw="standard_normal"):
        counts.update((block, stream) for block in blocks)
        inside.append(True)
        try:
            return real_fill(out, seed, blocks, stream, draw)
        finally:
            inside.pop()

    def counted_rng(seed, block, stream=0):
        if not inside:
            counts[block, stream] += 1
        return real_rng(seed, block, stream)

    for module in (channel, simulator):
        monkeypatch.setattr(module, "fill_block_streams", counted_fill)
    monkeypatch.setattr(channel, "block_rng", counted_rng)
    return counts


@pytest.mark.parametrize("noise_variance", [0.0, 1e-6])
def test_each_block_draws_its_streams_once(monkeypatch, noise_variance):
    """An episode draws every block's channels (stream 0) and symbols
    (stream 1) once, and its noise (stream 2) once when there is noise; a
    slope estimate draws streams 0 and 1 once. This holds with front pieces
    inside chunks, with a front piece larger than the chunk, and at the
    default sizes, on both sides of the stream crossover."""
    params = SystemParams(4, 5, 5, 1, 2, 1, 4)
    options = SimOptions(strictness=SUFFICIENT_Q, noise_variance=noise_variance)
    built = build_schedule(params, "thm2-ordered", options)
    schedule = replace(built, blocks=built.blocks[:16])
    blocks = [plan.block_index for plan in schedule.blocks]
    counts = _counted_streams(monkeypatch)
    episode_streams = (0, 1, 2) if noise_variance else (0, 1)
    for sizes in (None, (2, 5), (7, 5)):
        if sizes is not None:
            _chunk_sizes(monkeypatch, *sizes)
        for crossover in (1, 1 << 30):
            monkeypatch.setattr(channel, "STREAM_CROSSOVER", crossover)
            counts.clear()
            run_episode(params, "thm2-ordered", 3, options, schedule=schedule)
            assert counts == Counter({(block, stream): 1 for block in blocks for stream in episode_streams})
            counts.clear()
            estimate_dof_slope(params, "thm2-ordered", 3, (1e3, 1e6), options, schedule=schedule)
            assert counts == Counter({(block, stream): 1 for block in blocks for stream in (0, 1)})


@pytest.mark.parametrize(
    "params, regime, options, seed, powers, expected",
    [
        (
            EX,
            "thm1",
            SimOptions(),
            3,
            (1e3, 1e5),
            (0.9998280903746061, 0.9997336840527323, 0.9975695121340015, 0.9995610449961162),
        ),
        (
            SystemParams(4, 5, 5, 1, 2, 1, 4),
            "thm2-ordered",
            SimOptions(strictness=SUFFICIENT_Q),
            2,
            (1e3, 1e4, 1e6),
            (0.7992957004738348, 0.799662748957811, 0.7992744050923057, 0.7992936618241813, 0.7992817613675158),
        ),
        (
            SystemParams(4, 5, 5, 1, 2, 1, 4),
            "thm2-partition",
            SimOptions(strictness=SUFFICIENT_Q, disable_irs=True),
            2,
            (1e3, 1e6),
            (0.0032819228715624503, 0.4019406205759125, 0.5334181359480104, 0.5325893986497409, 0.5325079974800178),
        ),
    ],
)
def test_slope_estimate_unchanged_by_chunking(monkeypatch, params, regime, options, seed, powers, expected):
    """The slopes equal those of the block-by-block front the chunked one
    replaced (recorded from it), whatever the chunk size."""
    for blocks in (5, 1 << 20):
        _chunks_of(monkeypatch, params, blocks)
        assert estimate_dof_slope(params, regime, seed, powers, options).per_receiver == expected


def _zero_channels(monkeypatch, params, zeroed):
    """Zero the whole draw, or only the direct leg, of the given blocks:
    ``zeroed`` maps a block index to ``"all"`` or ``"direct"``."""
    direct = 2 * params.k_r * params.k_t
    _zero_streams(monkeypatch, {block: None if leg == "all" else direct for block, leg in zeroed.items()})


def _first_error_block_by_block(plans, params, seed, options):
    for plan in plans:
        try:
            simulate_block(plan, params, seed, options)
        except SingularChannelError as exc:
            return str(exc)
    raise AssertionError("no block failed")


@pytest.mark.parametrize(
    "zeroed, disable_irs, expected",
    [
        # a square null-steering system of zeros in the middle of a chunk
        ({9: "all"}, False, r"^seed 4, block 9: square null-steering system of size 4 is singular"),
        # a zero channel with the surface off: the joint zero-forcing system
        ({9: "all"}, True, r"^seed 4, block 9: joint zero-forcing system is singular"),
        # block 9 fails at zero forcing (its null steering cuts nothing from
        # a zero direct channel), block 11 at null steering; the stacked
        # stages meet block 11 first, the block-by-block order block 9
        ({9: "direct", 11: "all"}, False, r"^seed 4, block 9: joint zero-forcing system is singular"),
    ],
)
def test_singular_block_inside_a_chunk_raises_the_block_by_block_error(monkeypatch, zeroed, disable_irs, expected):
    params = SystemParams(4, 5, 5, 1, 2, 1, 4)
    options = SimOptions(strictness=SUFFICIENT_Q, disable_irs=disable_irs)
    schedule = build_schedule(params, "thm2-ordered", options)
    assert [plan.block_index for plan in schedule.blocks[:16]] == list(range(1, 17))
    _chunks_of(monkeypatch, params, 16)
    _zero_channels(monkeypatch, params, zeroed)
    with pytest.raises(SingularChannelError, match=expected) as chunked:
        run_episode(params, "thm2-ordered", 4, options, schedule=schedule)
    assert str(chunked.value) == _first_error_block_by_block(schedule.blocks, params, 4, options)
