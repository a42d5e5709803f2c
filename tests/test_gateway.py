import dataclasses
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surveyaudit import gateway
from surveyaudit.errors import AuthMissing, BackendUnavailable, MalformedLog
from surveyaudit.gateway import (
    BackendConfig,
    ExchangeCache,
    MockBackend,
    Prediction,
    ReplayBackend,
    cache_key,
    complete,
    parse_response,
    run_batch,
)
from surveyaudit.prompts import AblationMask, PromptVariant, render
from surveyaudit.gateway import RemoteChatBackend

from conftest import make_dataset


def prompt_for(ds, i=0):
    return render(ds.profiles[i], ds.cases[0], PromptVariant.ZERO_SHOT,
                  AblationMask.all(), [])


# --- parsing cascade ---

def test_parse_exact_final_line():
    assert parse_response("Boric", ["Boric", "Kast"]) == 0


def test_parse_labels_parse_to_themselves():
    options = ["Approve", "Disapprove", "Abstain"]
    for i, label in enumerate(options):
        assert parse_response(label, options) == i


def test_parse_unique_substring():
    text = "Reasoning... therefore I would vote for Kast."
    assert parse_response(text, ["Boric", "Kast"]) == 1


def test_parse_substring_is_case_insensitive():
    assert parse_response("definitely KAST here", ["Boric", "Kast"]) == 1


def test_parse_two_hits_unparseable():
    text = "I cannot decide between Boric and Kast"
    assert parse_response(text, ["Boric", "Kast"]) is None


def test_parse_option_number():
    assert parse_response("I choose Option 2 obviously", ["A1x", "B2x"]) == 1
    assert parse_response("2. that one", ["A1x", "B2x"]) == 1


def test_parse_no_match_unparseable():
    assert parse_response("no idea", ["Boric", "Kast"]) is None


def test_parse_label_inside_longer_label():
    # "agree" inside "disagree" is not a second hit
    options = ["Agree", "Neither", "Disagree"]
    assert parse_response("They would say disagree.", options) == 2
    assert parse_response("They would say agree.", options) == 0
    assert parse_response("Not sure, probably yes", ["Yes", "No"]) == 0
    # a label inside a longer word is no hit at all
    assert parse_response("I don't know", ["Yes", "No"]) is None
    likert = ["Strongly agree", "Agree", "Disagree", "Strongly disagree"]
    assert parse_response("I would strongly disagree.", likert) == 3


_words = st.from_regex(r"[A-Za-z]{1,8}", fullmatch=True).filter(
    lambda w: w.lower() not in {"they", "would", "say"})
_labels = st.lists(_words, min_size=1, max_size=3).map(" ".join)


@given(st.lists(_labels, min_size=1, max_size=6,
                unique_by=lambda label: label.lower()),
       st.data())
def test_parse_reply_naming_one_option(options, data):
    i = data.draw(st.integers(0, len(options) - 1))
    assert parse_response(options[i], options) == i
    assert parse_response(f"They would say {options[i]}.", options) == i


def test_parse_deterministic_total():
    for text in ["", "x", "1.", "Option 9", "Boric Boric"]:
        a = parse_response(text, ["Boric", "Kast"])
        b = parse_response(text, ["Boric", "Kast"])
        assert a == b


# --- backends and cache ---

def test_cache_round_trip(tmp_path):
    cache = ExchangeCache(tmp_path / "cache.jsonl")
    key = cache_key("p", "m", 0.0)
    assert cache.get(key) is None
    cache.put(key, "p", "m", 0.0, "reply")
    assert cache.get(key) == "reply"
    # reload from disk
    cache2 = ExchangeCache(tmp_path / "cache.jsonl")
    assert cache2.get(key) == "reply"
    cache.close()


def test_cache_skips_torn_final_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = cache_key("p", "m", 0.0), cache_key("q", "m", 0.0)
    cache = ExchangeCache(path)
    cache.put(first, "p", "m", 0.0, "reply")
    cache.close()
    whole = path.read_bytes()
    torn = json.dumps({"key": second, "raw_text": "cut"})[:20]
    path.write_bytes(whole + torn.encode())

    cache = ExchangeCache(path)
    assert cache.torn_tail == len(torn)
    assert cache.get(first) == "reply"
    assert len(cache) == 1
    # the next append replaces the torn line, so the file loads again whole
    cache.put(second, "q", "m", 0.0, "other")
    cache.close()
    again = ExchangeCache(path)
    assert again.torn_tail == 0
    assert (again.get(first), again.get(second)) == ("reply", "other")

    # a whole last record without its newline is kept and ended properly
    path.write_bytes(whole.rstrip(b"\n"))
    cache = ExchangeCache(path)
    assert (cache.torn_tail, cache.get(first)) == (0, "reply")
    cache.put(second, "q", "m", 0.0, "other")
    cache.close()
    assert len(ExchangeCache(path)) == 2


def test_cache_malformed_inner_line_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ExchangeCache(path)
    cache.put(cache_key("p", "m", 0.0), "p", "m", 0.0, "reply")
    cache.close()
    good = path.read_text(encoding="utf-8")
    path.write_text('{"key": "x", "raw' + "\n" + good, encoding="utf-8")
    with pytest.raises(MalformedLog) as raised:
        ExchangeCache(path)
    assert str(raised.value).startswith(f"{path}, line 1: not JSON: ")


def test_remote_uses_cache_without_network(tmp_path, monkeypatch):
    ds = make_dataset(n=3)
    prompt = prompt_for(ds)
    config = BackendConfig(name="r", kind="remote", model_id="gpt-x",
                           endpoint="http://invalid.example/chat")
    cache = ExchangeCache(tmp_path / "cache.jsonl")

    calls = {"n": 0}

    class FakeSession:
        def post(self, *a, **k):
            calls["n"] += 1

            class R:
                status_code = 200

                def json(self):
                    return {"choices": [{"message": {"content": "Left"}}]}

                text = ""

            return R()

    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    backend = RemoteChatBackend(config, session=FakeSession())
    raw1, hit1 = complete(prompt, backend, cache)
    raw2, hit2 = complete(prompt, backend, cache)
    cache.close()
    assert (raw1, hit1) == ("Left", False)
    assert (raw2, hit2) == ("Left", True)
    assert calls["n"] == 1


def test_remote_auth_missing(monkeypatch):
    ds = make_dataset(n=3)
    monkeypatch.delenv("SURVEYAUDIT_API_KEY", raising=False)
    config = BackendConfig(name="r", kind="remote",
                           endpoint="http://invalid.example/chat")
    backend = RemoteChatBackend(config, session=object())
    with pytest.raises(AuthMissing):
        backend.complete(prompt_for(ds))


def test_replay_miss_fails(tmp_path):
    ds = make_dataset(n=3)
    cache = ExchangeCache(tmp_path / "cache.jsonl")
    backend = ReplayBackend(BackendConfig(name="rp", kind="replay"), cache)
    with pytest.raises(BackendUnavailable):
        backend.complete(prompt_for(ds))


def test_run_batch_totality_and_order():
    ds = make_dataset(n=100)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(100)]
    backend = MockBackend(BackendConfig(name="m", kind="mock"),
                          reply_fn=lambda p: "Left")
    preds = run_batch(prompts, {case.question_id: case.options}, backend)
    assert len(preds) == 100
    assert all(p.parsed == 0 for p in preds)
    assert [p.respondent_id for p in preds] == [
        pr.target_id for pr in prompts
    ]


def test_run_batch_result_memory_bounded():
    # A batch's predictions are columns of shared strings and numbers: about
    # 60 bytes a prediction, where a Prediction object each kept about 200.
    ds = make_dataset(n=2000)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(2000)]
    options = {case.question_id: case.options}
    backend = MockBackend(BackendConfig(name="m", kind="mock"),
                          reply_fn=lambda p: "Left")
    # warm the parser's caches, and fill the interpreter's free lists with
    # the objects a batch makes and drops, so that they do not count as kept
    run_batch(prompts, options, backend)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        preds = run_batch(prompts, options, backend)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(preds) == 2000 and preds[-1].respondent_id == "r1999"
    assert kept / len(preds) < 100


def test_run_batch_bounded_parallelism():
    ds = make_dataset(n=40)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(40)]
    in_flight = {"now": 0, "max": 0}
    lock = threading.Lock()

    def slow_reply(prompt):
        with lock:
            in_flight["now"] += 1
            in_flight["max"] = max(in_flight["max"], in_flight["now"])
        time.sleep(0.005)
        with lock:
            in_flight["now"] -= 1
        return "Left"

    backend = MockBackend(
        BackendConfig(name="m", kind="mock", parallelism=4), reply_fn=slow_reply
    )
    run_batch(prompts, {case.question_id: case.options}, backend)
    assert 1 < in_flight["max"] <= 4


def test_run_batch_per_prompt_failure_becomes_unparseable():
    ds = make_dataset(n=4)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(4)]

    def flaky(prompt):
        if prompt.target_id == "r002":
            raise RuntimeError("boom")
        return "Left"

    backend = MockBackend(BackendConfig(name="m", kind="mock"), reply_fn=flaky)
    preds = run_batch(prompts, {case.question_id: case.options}, backend)
    assert len(preds) == 4
    bad = [p for p in preds if p.respondent_id == "r002"][0]
    assert bad.parsed is None
    assert "boom" in bad.note


def test_run_batch_parses_each_distinct_reply_of_a_case_once(monkeypatch):
    # two cases in one batch share reply texts, which parse differently
    # under their options; some prompts fail
    ds = make_dataset(n=30)
    vote = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(30)]
    prompts += [dataclasses.replace(p, case_id="other") for p in prompts[:12]]
    options = {vote.question_id: vote.options, "other": ("Right", "Left", "No")}
    replies = ("Left", "Right", "2.", "I'd say Right")

    def reply(prompt):
        i = int(prompt.target_id[1:])
        if i % 7 == 3:
            raise RuntimeError(f"boom {i}")
        return replies[i % len(replies)]

    parse = gateway.parse_response
    parses = Counter()

    def counted(raw, opts):
        parses[raw, tuple(opts)] += 1
        return parse(raw, opts)

    monkeypatch.setattr(gateway, "parse_response", counted)
    backend = MockBackend(BackendConfig(name="m", kind="mock"), reply_fn=reply)
    preds = run_batch(prompts, options, backend)
    assert list(parses.values()) == [1] * len(replies) * len(options)

    expected = []
    for prompt in prompts:  # every prompt parsed on its own
        try:
            raw = reply(prompt)
        except RuntimeError as exc:
            expected.append(("", None, f"backend failure: {exc}"))
        else:
            expected.append((raw, parse(raw, options[prompt.case_id]), ""))
    assert [(p.raw_text, p.parsed, p.note) for p in preds] == expected
    assert sum(bool(p.note) for p in preds) == 6


def test_run_batch_replay_determinism(tmp_path, monkeypatch):
    ds = make_dataset(n=10)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(10)]
    config = BackendConfig(name="r", kind="remote", model_id="gpt-x",
                           endpoint="http://invalid.example/chat")
    cache = ExchangeCache(tmp_path / "cache.jsonl")

    class FakeSession:
        def post(self, url, json=None, headers=None, timeout=None):
            class R:
                status_code = 200
                text = ""

                def json(self):
                    return {"choices": [{"message": {"content": "Right"}}]}

            return R()

    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    remote = RemoteChatBackend(config, session=FakeSession())
    first = run_batch(prompts, {case.question_id: case.options}, remote, cache)
    cache.close()

    replay = ReplayBackend(config, ExchangeCache(tmp_path / "cache.jsonl"))
    second = run_batch(prompts, {case.question_id: case.options}, replay)
    # every field but the volatile latency and cache flag
    assert [dataclasses.replace(p, latency_ms=0.0, cache_hit=False)
            for p in first] == [dataclasses.replace(p, latency_ms=0.0,
                                                    cache_hit=False)
                                for p in second]
    assert all(p.cache_hit for p in second)


# --- one send per distinct key, and the keys ---

class _Reply:
    status_code = 200
    text = ""

    def __init__(self, content):
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


def _remote(temperature=0.0, parallelism=1):
    return BackendConfig(name="r", kind="remote", model_id="gpt-x",
                         endpoint="http://invalid.example/chat",
                         temperature=temperature, parallelism=parallelism)


def test_run_batch_calls_once_per_distinct_prompt(tmp_path, monkeypatch):
    # zero-shot prompts of 60 respondents over 6 distinct profiles: 6 texts
    ds = make_dataset(n=60)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(60)]
    assert len({p.text for p in prompts}) == 6
    lock = threading.Lock()
    calls = {"n": 0}

    class SlowSession:
        def post(self, *a, **k):
            with lock:
                calls["n"] += 1
            time.sleep(0.002)
            return _Reply("Left")

    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    path = tmp_path / "cache.jsonl"
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            path.unlink(missing_ok=True)
            calls["n"] = 0
            cache = ExchangeCache(path)
            backend = RemoteChatBackend(_remote(parallelism=8),
                                        session=SlowSession())
            preds = run_batch(prompts, {case.question_id: case.options},
                              backend, cache)
            cache.close()
            assert [p.parsed for p in preds] == [0] * 60
            assert calls["n"] == 6
            assert len(path.read_text(encoding="utf-8").splitlines()) == 6
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("parallelism", [1, 8])
def test_failing_shared_key_is_sent_once(tmp_path, monkeypatch, parallelism):
    # zero-shot prompts of profiles 0 and 1, five respondents each: 2 texts
    ds = make_dataset(n=30)
    case = ds.cases[0]
    prompts = [prompt_for(ds, i) for i in range(30) if i % 6 < 2]
    good, bad = prompts[0].text, prompts[1].text
    assert len(prompts) == 10 and {p.text for p in prompts} == {good, bad}
    lock = threading.Lock()
    sent = []

    class HalfBrokenSession:
        def post(self, url, json=None, headers=None, timeout=None):
            text = json["messages"][-1]["content"]
            with lock:
                sent.append(text)
            reply = _Reply("Left")
            if text == bad:
                reply.status_code = 400  # rejected: no retry
            return reply

    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    cache = ExchangeCache(tmp_path / "cache.jsonl")
    backend = RemoteChatBackend(_remote(parallelism=parallelism),
                                session=HalfBrokenSession())
    preds = run_batch(prompts, {case.question_id: case.options}, backend, cache)
    cache.close()
    assert sorted(sent) == sorted([good, bad])
    assert len(cache) == 1
    for prompt, pred in zip(prompts, preds):
        assert pred.respondent_id == prompt.target_id
        if prompt.text == bad:
            assert pred.note and pred.parsed is None and not pred.cache_hit
            assert "request rejected (400)" in pred.note
        else:
            assert not pred.note and pred.parsed == 0
    assert [p.cache_hit for p in preds if p.raw_text] == [False] + [True] * 4


def test_temperature_above_zero_keys_by_respondent(tmp_path, monkeypatch):
    ds = make_dataset(n=7)
    a, b = prompt_for(ds, 0), prompt_for(ds, 6)  # same profile values
    assert a.text == b.text and a.target_id != b.target_id
    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    for temperature, expected in ((0.0, 1), (0.7, 2)):
        calls = []

        class CountingSession:
            def post(self, *a, **k):
                calls.append(1)
                return _Reply(f"Left {len(calls)}")

        config = _remote(temperature)
        path = tmp_path / f"cache-{temperature}.jsonl"
        cache = ExchangeCache(path)
        backend = RemoteChatBackend(config, session=CountingSession())
        live = [complete(p, backend, cache)[0] for p in (a, b, a, b)]
        cache.close()
        assert len(calls) == expected
        assert len(set(live)) == expected
        replay = ReplayBackend(config, ExchangeCache(path))
        assert [replay.complete(p) for p in (a, b)] == live[:2]
        # run_batch shares a send between the prompts that share a key
        calls.clear()
        batch = run_batch([a, b, a, b], {ds.cases[0].question_id: ds.cases[0].options},
                          backend, ExchangeCache())
        assert len(calls) == expected
        assert len({p.raw_text for p in batch}) == expected


# --- retries ---

class _FaultySession:
    """Replies with each of ``faults`` in turn, then succeeds: a fault is an
    exception to raise or a (status, headers) pair."""

    def __init__(self, faults):
        self.faults = list(faults)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        if not self.faults:
            return _Reply("Left")
        fault = self.faults.pop(0)
        if isinstance(fault, Exception):
            raise fault
        reply = _Reply("")
        reply.status_code, reply.headers = fault
        return reply


def _retrying(monkeypatch, faults, max_retries):
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    config = BackendConfig(name="r", kind="remote", model_id="gpt-x",
                           endpoint="http://invalid.example/chat",
                           max_retries=max_retries)
    session = _FaultySession(faults)
    return RemoteChatBackend(config, session=session), session, sleeps


def test_retry_honours_numeric_retry_after(monkeypatch):
    backend, session, sleeps = _retrying(monkeypatch, [
        (429, {"Retry-After": "3"}),
        (503, {"Retry-After": "120"}),  # capped at 30 s
        (429, {"Retry-After": "0"}),
    ], max_retries=3)
    assert backend.complete(prompt_for(make_dataset(n=3))) == "Left"
    assert session.calls == 4
    assert sleeps == [3.0, 30.0, 0.0]


def test_retry_backoff_is_jittered_and_capped(monkeypatch):
    faults = [ConnectionError("reset"), (503, {}), (429, {}),
              (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
              (500, {"Retry-After": "-1"}), (502, {})]
    draws = []

    def uniform(a, b):
        draws.append((a, b))
        return (a + b) / 2

    monkeypatch.setattr(gateway.random, "uniform", uniform)
    backend, session, sleeps = _retrying(monkeypatch, faults, max_retries=6)
    assert backend.complete(prompt_for(make_dataset(n=3))) == "Left"
    # an HTTP-date or a negative Retry-After counts as absent
    backoff = [2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
    assert draws == [(b / 2, b) for b in backoff]
    assert sleeps == [0.75 * b for b in backoff]


def test_retry_gives_up_after_max_retries(monkeypatch):
    backend, session, sleeps = _retrying(
        monkeypatch, [(503, {})] * 3, max_retries=2)
    with pytest.raises(BackendUnavailable, match="server error 503"):
        backend.complete(prompt_for(make_dataset(n=3)))
    assert session.calls == 3 and len(sleeps) == 2
    assert 1.0 <= sleeps[0] <= 2.0 and 2.0 <= sleeps[1] <= 4.0


# --- rate limit ---

class _Clock:
    """A monotonic clock that only ``sleep`` advances."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class _TimedSession(_FaultySession):
    """A ``_FaultySession`` that notes the clock time of each request."""

    def __init__(self, faults, clock):
        super().__init__(faults)
        self.clock = clock
        self.sent = []

    def post(self, *args, **kwargs):
        self.sent.append(self.clock.now)
        return super().post(*args, **kwargs)


def _throttled(monkeypatch, faults, rate_limit):
    clock = _Clock()
    monkeypatch.setattr(gateway.time, "monotonic", clock.monotonic)
    monkeypatch.setattr(gateway.time, "sleep", clock.sleep)
    monkeypatch.setenv("SURVEYAUDIT_API_KEY", "k")
    session = _TimedSession(faults, clock)
    config = BackendConfig(name="r", kind="remote", model_id="gpt-x",
                           endpoint="http://invalid.example/chat",
                           rate_limit=rate_limit)
    return RemoteChatBackend(config, session=session), clock, session.sent


def test_rate_limit_spaces_every_request(monkeypatch):
    backend, clock, sent = _throttled(monkeypatch, [
        (429, {"Retry-After": "0"}), (503, {"Retry-After": "0"})],
        rate_limit=120)
    prompt = prompt_for(make_dataset(n=3))
    assert backend.complete(prompt) == "Left"  # two retries
    assert backend.complete(prompt) == "Left"
    assert backend.complete(prompt) == "Left"
    # 120 requests a minute: one each 0.5 s, retries included
    assert sent == [1000.0, 1000.5, 1001.0, 1001.5, 1002.0]


def test_no_rate_limit_never_sleeps(monkeypatch):
    backend, clock, sent = _throttled(monkeypatch, [], rate_limit=None)
    prompt = prompt_for(make_dataset(n=3))
    for _ in range(3):
        assert backend.complete(prompt) == "Left"
    assert clock.sleeps == [] and sent == [1000.0] * 3
