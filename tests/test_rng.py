"""Stream splitting, counting, and state round-trips."""

import numpy as np

from latent_motor.rng import RngStreams, eval_generator


def test_streams_independent_and_deterministic():
    a = RngStreams(7)
    b = RngStreams(7)
    x = a.get("env").standard_normal(5)
    y = b.get("env").standard_normal(5)
    assert np.array_equal(x, y)
    # drawing from one stream leaves the others untouched
    z = b.get("noise").standard_normal(5)
    assert not np.array_equal(x, z)
    assert np.array_equal(a.get("noise").standard_normal(5), z)


def test_draw_counter_tracks_volume():
    s = RngStreams(0)
    s.get("policy").standard_normal((4, 3))
    s.get("policy").uniform(size=(2,))
    s.get("policy").integers(0, 10, size=5)
    assert s.get("policy").draws == 12 + 2 + 5


def test_state_round_trip_continues_sequence():
    a = RngStreams(42)
    a.get("env").standard_normal(100)
    payload = a.state()
    b = RngStreams(0)  # the stream states decide the draws, not the seed
    b.restore(payload)
    assert np.array_equal(a.get("env").standard_normal(10),
                          b.get("env").standard_normal(10))
    assert b.get("env").draws == a.get("env").draws


def test_state_is_json_like():
    import json
    s = RngStreams(3)
    s.get("batch").standard_normal(7)
    text = json.dumps(s.state())
    restored = RngStreams(3)
    restored.restore(json.loads(text))
    assert np.array_equal(restored.get("batch").standard_normal(3),
                          s.get("batch").standard_normal(3))


def test_each_stream_seeded_from_seed_and_id_alone():
    # removing or adding a stream changes no other stream's draws
    for name, sid in (("init", 1), ("batch", 5)):
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, sid])))
        assert np.array_equal(RngStreams(3).get(name).standard_normal(4),
                              ref.standard_normal(4))


def test_eval_generator_stateless():
    g1 = eval_generator(5, 1, 2)
    g2 = eval_generator(5, 1, 2)
    assert np.array_equal(g1.standard_normal(4), g2.standard_normal(4))
    g3 = eval_generator(5, 1, 3)
    assert not np.array_equal(eval_generator(5, 1, 2).standard_normal(4),
                              g3.standard_normal(4))
