"""Model backends, response parsing, and the append-only exchange cache.

Three backend kinds are supported: a remote JSON chat-completion endpoint,
a deterministic mock for tests and dry runs, and a replay backend that
serves exclusively from the cache (offline CI).  Every remote exchange is
appended to a JSON-lines cache keyed by (prompt text, model id,
temperature), and by the target respondent when the temperature is above 0,
so a finished run can be re-scored without any network.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import random
import re
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .data import file_name_part
from .errors import AuthMissing, BackendUnavailable, MalformedLog, RateLimited
from .prompts import RenderedPrompt

UNPARSEABLE = None


def _is_number(value) -> bool:
    # a bool is an int to Python, but no number in a config
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class BackendConfig:
    name: str
    kind: str  # "remote" | "mock" | "replay"
    model_id: str = "mock"
    endpoint: Optional[str] = None
    temperature: float = 0.0
    max_retries: int = 3
    parallelism: int = 1
    rate_limit: Optional[float] = None  # requests/minute
    credential_env: str = "SURVEYAUDIT_API_KEY"

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"name must be a non-empty string, "
                             f"got {self.name!r}")
        file_name_part(self.name, "name")
        for name, types in (("model_id", str), ("credential_env", str),
                            ("endpoint", (str, type(None)))):
            value = getattr(self, name)
            if not isinstance(value, types):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.kind not in {"remote", "mock", "replay"}:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backends require an endpoint")
        for name, low in (("max_retries", 0), ("parallelism", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (_is_number(self.temperature) and 0 <= self.temperature < math.inf):
            raise ValueError(f"temperature must be a finite number >= 0, "
                             f"got {self.temperature!r}")
        if self.rate_limit is not None and not (
                _is_number(self.rate_limit) and 0 < self.rate_limit < math.inf):
            raise ValueError(f"rate_limit must be None or a finite number > 0, "
                             f"got {self.rate_limit!r}")


@dataclass(frozen=True)
class Prediction:
    respondent_id: str
    question_id: str
    backend: str
    raw_text: str
    parsed: Optional[int]
    latency_ms: float = 0.0
    cache_hit: bool = False
    note: str = ""  # why the backend failed; empty when it replied


class Predictions(Sequence[Prediction]):
    """An immutable sequence of predictions held as one column per field.

    The five text columns are tuples whose strings are shared with the
    prompts, the replies and the other predictions; ``parsed`` is a tuple
    of None or int, ``latency_ms`` an ``array('d')`` and ``cache_hits`` one
    byte per prediction.  A ``Prediction`` is built only when an item is
    read.  Omitted latencies are 0.0, cache hits False and notes empty, as
    in ``Prediction``.  The columns are not changed after they are built.
    """

    __slots__ = ("respondent_ids", "question_ids", "backends", "raw_texts",
                 "parsed", "latency_ms", "cache_hits", "notes")

    def __init__(self, respondent_ids: tuple[str, ...],
                 question_ids: tuple[str, ...], backends: tuple[str, ...],
                 raw_texts: tuple[str, ...], parsed: tuple[Optional[int], ...],
                 latency_ms: Optional[array] = None,
                 cache_hits: Optional[bytes] = None,
                 notes: Optional[tuple[str, ...]] = None):
        n = len(respondent_ids)
        self.respondent_ids = respondent_ids
        self.question_ids = question_ids
        self.backends = backends
        self.raw_texts = raw_texts
        self.parsed = parsed
        self.latency_ms = (array("d", bytes(8 * n)) if latency_ms is None
                           else latency_ms)
        self.cache_hits = bytes(n) if cache_hits is None else cache_hits
        self.notes = ("",) * n if notes is None else notes
        if any(len(getattr(self, c)) != n for c in self.__slots__):
            raise ValueError("prediction columns differ in length")

    @classmethod
    def of(cls, predictions: Sequence[Prediction]) -> "Predictions":
        """``predictions`` itself when it is a ``Predictions``, else its
        records as columns."""
        if isinstance(predictions, cls):
            return predictions
        return cls(tuple(p.respondent_id for p in predictions),
                   tuple(p.question_id for p in predictions),
                   tuple(p.backend for p in predictions),
                   tuple(p.raw_text for p in predictions),
                   tuple(p.parsed for p in predictions),
                   array("d", [p.latency_ms for p in predictions]),
                   bytes([p.cache_hit for p in predictions]),
                   tuple(p.note for p in predictions))

    @classmethod
    def join(cls, parts: Iterable[Sequence[Prediction]]) -> "Predictions":
        """The predictions of every part, in order, as one container."""
        parts = [cls.of(p) for p in parts]

        def column(name):
            return itertools.chain.from_iterable(getattr(p, name)
                                                 for p in parts)

        return cls(tuple(column("respondent_ids")),
                   tuple(column("question_ids")),
                   tuple(column("backends")), tuple(column("raw_texts")),
                   tuple(column("parsed")), array("d", column("latency_ms")),
                   bytes(column("cache_hits")), tuple(column("notes")))

    def __len__(self) -> int:
        return len(self.respondent_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Predictions(*(getattr(self, c)[i] for c in self.__slots__))
        return Prediction(self.respondent_ids[i], self.question_ids[i],
                          self.backends[i], self.raw_texts[i], self.parsed[i],
                          self.latency_ms[i], bool(self.cache_hits[i]),
                          self.notes[i])

    def __iter__(self):
        return map(Prediction, self.respondent_ids, self.question_ids,
                   self.backends, self.raw_texts, self.parsed, self.latency_ms,
                   map(bool, self.cache_hits), self.notes)

    def __repr__(self) -> str:
        return f"<Predictions of {len(self)}>"


def cache_key(prompt_text: str, model_id: str, temperature: float,
              respondent_id: Optional[str] = None) -> str:
    fields = {"prompt": prompt_text, "model": model_id, "temperature": temperature}
    if respondent_id is not None:
        fields["respondent"] = respondent_id
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _reply_fields(prompt: RenderedPrompt, config: BackendConfig
                  ) -> tuple[str, Optional[str]]:
    """The fields of a prompt that its reply is keyed by.  Above temperature
    0 the replies to one text are separate draws, so each target respondent
    keeps its own; at 0 every prompt with the same text shares one reply."""
    return prompt.text, prompt.target_id if config.temperature > 0 else None


def prompt_key(prompt: RenderedPrompt, config: BackendConfig) -> str:
    """The cache key of a prompt sent to a backend."""
    text, respondent_id = _reply_fields(prompt, config)
    return cache_key(text, config.model_id, config.temperature, respondent_id)


def checked_record(rec, fields: Mapping[str, type | tuple], path,
                   number: int) -> dict:
    """``rec``, the decoded line ``number`` of the JSON-lines file at
    ``path``, when it is an object holding ``fields``, each of its type (a
    bool is no int); otherwise ``MalformedLog`` naming the file and line."""
    if not isinstance(rec, dict):
        raise MalformedLog(f"{path}, line {number}: expected a JSON object")
    missing = [k for k in fields if k not in rec]
    if missing:
        raise MalformedLog(f"{path}, line {number}: missing fields {missing}")
    wrong = [k for k, kind in fields.items()
             if not isinstance(rec[k], kind) or isinstance(rec[k], bool)]
    if wrong:
        raise MalformedLog(f"{path}, line {number}: wrong type of {wrong}")
    return rec


# the fields of a cache record that a load reads
_EXCHANGE = {"key": str, "raw_text": str}


class ExchangeCache:
    """Append-only JSON-lines cache of prompt/response exchanges.

    Concurrent appends are serialized by a lock.  The file is opened for
    appending on the first ``put`` and stays open until ``close``; every
    record is flushed as it is written.

    A final line that does not decode is a write cut short: it is skipped
    on load, its length is kept in ``torn_tail``, and it is cut off the file
    before the next append.  Any other line that is not a record with a
    string ``key`` and ``raw_text`` raises ``MalformedLog`` naming the file
    and the line.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        self._fh = None
        self.hits = 0
        self.misses = 0
        self.torn_tail = 0  # bytes of a torn final line skipped on load
        # bytes of the file to keep before the next append, when its tail
        # needs mending first
        self._keep: Optional[int] = None
        if self.path and self.path.exists():
            with self.path.open("rb") as fh:
                line = b""
                for number, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        rec = json.loads(line)
                    except ValueError as exc:
                        if fh.read(1):
                            raise MalformedLog(f"{self.path}, line {number}: "
                                               f"not JSON: {exc}") from None
                        self.torn_tail = len(line)
                        break
                    rec = checked_record(rec, _EXCHANGE, self.path, number)
                    self._entries[rec["key"]] = rec["raw_text"]
                if self.torn_tail or (line and not line.endswith(b"\n")):
                    self._keep = fh.tell() - self.torn_tail

    def _mend_tail(self) -> None:
        """Cut a torn final line and end the last record with a newline, so
        that the next record starts a line of its own."""
        with self.path.open("r+b") as fh:
            fh.truncate(self._keep)
            if self._keep:
                fh.seek(self._keep - 1)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        self._keep = None

    def get(self, key: str) -> Optional[str]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: str, prompt_text: str, model_id: str,
            temperature: float, raw_text: str) -> None:
        with self._lock:
            self._entries[key] = raw_text
            if self.path:
                rec = {
                    "key": key,
                    "prompt_text": prompt_text,
                    "model_id": model_id,
                    "temperature": temperature,
                    "raw_text": raw_text,
                    "timestamp": time.time(),
                }
                if self._fh is None:
                    if self._keep is not None:
                        self._mend_tail()
                    self._fh = self.path.open("a", encoding="utf-8")
                self._fh.write(json.dumps(rec) + "\n")
                self._fh.flush()

    def close(self) -> None:
        """Close the append handle; a later ``put`` opens it again."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __len__(self) -> int:
        return len(self._entries)


@functools.lru_cache(maxsize=256)
def _label_matcher(options: tuple[str, ...]
                   ) -> tuple[re.Pattern, dict[str, tuple[int, ...]]]:
    """A pattern for any label as a whole word, case-insensitively, and the
    option indices of each lowercased label.  Longer labels are tried
    first, so "Strongly agree" is one hit rather than two."""
    labels = sorted(options, key=len, reverse=True)
    pattern = re.compile(
        r"(?<!\w)(?:" + "|".join(re.escape(label) for label in labels) + r")(?!\w)",
        re.IGNORECASE,
    )
    indices: dict[str, tuple[int, ...]] = {}
    for i, label in enumerate(options):
        indices[label.lower()] = indices.get(label.lower(), ()) + (i,)
    return pattern, indices


def parse_response(raw_text: str, options: Sequence[str]) -> Optional[int]:
    """Map free-form model text to an option index, or None if ambiguous.

    Cascade: exact label on the trimmed final line; else the labels the
    text names as whole words, case-insensitively, where the longest label
    wins where labels overlap, if they are all one label; else a unique
    leading option number ("2.", "Option 2").  Two or more distinct labels
    at the same stage mean the reply is unparseable.
    """
    if not options or len(set(options)) != len(options):
        raise ValueError("options must be non-empty and distinct")

    lines = [ln.strip() for ln in raw_text.splitlines() if ln.strip()]
    final = lines[-1] if lines else ""
    for i, label in enumerate(options):
        if final == label:
            return i

    pattern, indices = _label_matcher(tuple(options))
    hits = {i for m in pattern.finditer(raw_text)
            for i in indices.get(m.group().lower(), ())}
    if len(hits) == 1:
        return hits.pop()
    if len(hits) > 1:
        return UNPARSEABLE

    numbers: set[int] = set()
    for m in re.finditer(r"(?:^|\n)\s*(\d+)[.)]", raw_text):
        numbers.add(int(m.group(1)))
    for m in re.finditer(r"\boption\s+(\d+)\b", raw_text, flags=re.IGNORECASE):
        numbers.add(int(m.group(1)))
    valid = {n for n in numbers if 1 <= n <= len(options)}
    if len(valid) == 1:
        return valid.pop() - 1
    return UNPARSEABLE


class MockBackend:
    """Deterministic offline backend; ``reply_fn`` computes each reply
    locally."""

    def __init__(self, config: BackendConfig,
                 reply_fn: Callable[[RenderedPrompt], str]):
        self.config = config
        self._reply_fn = reply_fn

    def complete(self, prompt: RenderedPrompt) -> str:
        return self._reply_fn(prompt)


class ReplayBackend:
    """Serves strictly from the cache; any miss is a hard failure."""

    def __init__(self, config: BackendConfig, cache: ExchangeCache):
        self.config = config
        self.cache = cache

    def complete(self, prompt: RenderedPrompt) -> str:
        value = self.cache.get(prompt_key(prompt, self.config))
        if value is None:
            raise BackendUnavailable(
                f"replay cache has no entry for case {prompt.case_id!r} "
                f"(model {self.config.model_id!r})"
            )
        return value


_MAX_RETRY_DELAY_S = 30.0


def _retry_delay(attempt: int, failed=None) -> float:
    """Seconds to wait before retry ``attempt`` (1, 2, ...): the numeric
    ``Retry-After`` of the ``failed`` response when it gives one, else an
    exponential backoff of 2^attempt s with jitter, drawn from its upper
    half so that clients that failed together do not retry together.  Both
    are capped at 30 s; an HTTP-date ``Retry-After`` counts as absent."""
    headers = getattr(failed, "headers", None) or {}
    try:
        seconds = float(headers.get("Retry-After"))
    except (TypeError, ValueError):
        seconds = math.nan
    if seconds >= 0:  # false for nan
        return min(seconds, _MAX_RETRY_DELAY_S)
    backoff = min(2.0 ** attempt, _MAX_RETRY_DELAY_S)
    return random.uniform(backoff / 2, backoff)


class RemoteChatBackend:
    """JSON-over-HTTP chat-completion client with retry and rate limiting."""

    def __init__(self, config: BackendConfig, session=None):
        self.config = config
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._lock = threading.Lock()
        self._last_request = 0.0

    def _throttle(self):
        if not self.config.rate_limit:
            return
        interval = 60.0 / self.config.rate_limit
        with self._lock:
            wait = self._last_request + interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def complete(self, prompt: RenderedPrompt) -> str:
        token = os.environ.get(self.config.credential_env)
        if not token:
            raise AuthMissing(
                f"environment variable {self.config.credential_env!r} is not set"
            )
        body = {
            "model": self.config.model_id,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system",
                 "content": "You simulate survey respondents from their profiles."},
                {"role": "user", "content": prompt.text},
            ],
        }
        headers = {"Authorization": f"Bearer {token}"}
        last_error: Exception | None = None
        resp = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(_retry_delay(attempt, resp))
            self._throttle()
            try:
                resp = self._session.post(
                    self.config.endpoint, json=body, headers=headers, timeout=120
                )
            except Exception as exc:  # connection-level failure, retryable
                last_error, resp = exc, None
                continue
            if resp.status_code == 429:
                last_error = RateLimited("rate limited by endpoint")
                continue
            if resp.status_code >= 500:
                last_error = BackendUnavailable(f"server error {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise BackendUnavailable(
                    f"request rejected ({resp.status_code}): {resp.text[:500]}"
                )
            return resp.json()["choices"][0]["message"]["content"]
        if isinstance(last_error, RateLimited):
            raise last_error
        raise BackendUnavailable(f"backend unreachable after retries: {last_error}")


def build_backend(config: BackendConfig, cache: ExchangeCache,
                  reply_fn: Optional[Callable[[RenderedPrompt], str]] = None):
    """The backend of ``config``; ``reply_fn`` is a mock's reply function."""
    if config.kind == "mock":
        return MockBackend(config, reply_fn)
    if config.kind == "replay":
        return ReplayBackend(config, cache)
    return RemoteChatBackend(config)


def complete(prompt: RenderedPrompt, backend, cache: Optional[ExchangeCache] = None
             ) -> tuple[str, bool]:
    """Run one prompt, returning (raw_text, cache_hit).

    Mock backends are deterministic and bypass the cache entirely; remote
    exchanges are cached before return.
    """
    config: BackendConfig = backend.config
    if isinstance(backend, ReplayBackend):
        return backend.complete(prompt), True
    if isinstance(backend, MockBackend) or cache is None:
        return backend.complete(prompt), False
    key = prompt_key(prompt, config)
    cached = cache.get(key)
    if cached is not None:
        return cached, True
    raw = backend.complete(prompt)
    cache.put(key, prompt.text, config.model_id, config.temperature, raw)
    return raw, False


def run_batch(
    prompts: Sequence[RenderedPrompt],
    options_by_case: Mapping[str, Sequence[str]],
    backend,
    cache: Optional[ExchangeCache] = None,
) -> Predictions:
    """Execute a batch, output order-aligned with the input.

    Prompts that share a cache key share one send: the first of each key is
    sent, in order, on up to the backend's configured parallelism, and the
    others take its reply, note and latency as cache hits.  A mock replies
    to every prompt, since its reply may depend on the target.  Each
    distinct (reply, case) is parsed once.  Per-prompt failures become
    unparseable predictions with a note;
    only configuration-level errors abort the batch.  The result's columns
    are filled directly; no per-prompt object is made.
    """
    config: BackendConfig = backend.config

    def send(i: int) -> tuple[str, bool, float, str]:
        """(raw_text, cache_hit, latency_ms, failure note) of prompt i"""
        started = time.monotonic()
        try:
            raw, hit, note = *complete(prompts[i], backend, cache), ""
        except AuthMissing:
            raise  # config error: abort the whole batch
        except Exception as exc:
            raw, hit, note = "", False, f"backend failure: {exc}"
        return raw, hit, (time.monotonic() - started) * 1000.0, note

    # one backend per batch, so equal key fields mean equal keys: no hashing
    keys = (range(len(prompts)) if isinstance(backend, MockBackend)
            else [_reply_fields(p, config) for p in prompts])
    first: dict = {}  # key -> position of its first prompt
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    if config.parallelism == 1 or len(first) <= 1:
        replies = dict(zip(first, map(send, first.values())))
    else:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            replies = dict(zip(first, pool.map(send, first.values())))

    got = [replies[key] for key in keys]
    case_ids = tuple(p.case_id for p in prompts)
    parses: dict[tuple[str, str], Optional[int]] = {}  # (reply, case) -> parse
    parsed = []
    for (raw, _, _, note), case_id in zip(got, case_ids):
        if note:
            parsed.append(UNPARSEABLE)
            continue
        if (raw, case_id) not in parses:
            parses[raw, case_id] = parse_response(raw,
                                                  options_by_case[case_id])
        parsed.append(parses[raw, case_id])
    return Predictions(
        tuple(p.target_id for p in prompts), case_ids,
        (config.name,) * len(prompts), tuple(r[0] for r in got), tuple(parsed),
        array("d", [r[2] for r in got]),
        bytes([hit or (first[key] != i and not note)
               for i, (key, (_, hit, _, note)) in enumerate(zip(keys, got))]),
        tuple(r[3] for r in got))
