"""Model backends, response parsing, and the append-only exchange cache.

Three backend kinds are supported: a remote JSON chat-completion endpoint,
a deterministic mock for tests and dry runs, and a replay backend that
serves exclusively from the cache (offline CI).  Every remote exchange is
appended to a JSON-lines cache keyed by (prompt text, model id,
temperature), and by the target respondent when the temperature is above 0,
so a finished run can be re-scored without any network.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .errors import AuthMissing, BackendUnavailable, RateLimited
from .prompts import RenderedPrompt

UNPARSEABLE = None


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
        if self.kind not in {"remote", "mock", "replay"}:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backends require an endpoint")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass(frozen=True)
class Prediction:
    respondent_id: str
    question_id: str
    backend: str
    raw_text: str
    parsed: Optional[int]
    latency_ms: float = 0.0
    cache_hit: bool = False
    note: str = ""

    @property
    def failed(self) -> bool:
        """Whether the backend raised instead of replying: ``run_batch``
        notes a prediction only then."""
        return bool(self.note)

    def to_record(self) -> dict:
        """Stable serialized form (volatile fields dropped so that reruns
        of a deterministic backend produce byte-identical audit logs)."""
        return {
            "respondent_id": self.respondent_id,
            "question_id": self.question_id,
            "backend": self.backend,
            "raw_text": self.raw_text,
            "parsed": self.parsed,
            "note": self.note,
        }


def cache_key(prompt_text: str, model_id: str, temperature: float,
              respondent_id: Optional[str] = None) -> str:
    fields = {"prompt": prompt_text, "model": model_id, "temperature": temperature}
    if respondent_id is not None:
        fields["respondent"] = respondent_id
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def prompt_key(prompt: RenderedPrompt, config: BackendConfig) -> str:
    """The cache key of a prompt sent to a backend.  Above temperature 0 the
    replies to one text are separate draws, so each target respondent keeps
    its own; at 0 every prompt with the same text shares one reply."""
    return cache_key(
        prompt.text, config.model_id, config.temperature,
        prompt.target_id if config.temperature > 0 else None,
    )


class ExchangeCache:
    """Append-only JSON-lines cache of prompt/response exchanges.

    Concurrent appends are serialized by a lock; identical keys always map
    to identical values, so last-writer-wins is harmless.  The file is
    opened for appending on the first ``put`` and stays open until
    ``close``; every record is flushed as it is written.

    A final line that does not decode is a write cut short: it is skipped
    on load, its length is kept in ``torn_tail``, and it is cut off the file
    before the next append.  A malformed line anywhere else raises.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        # one lock per key that a caller is fetching, dropped on its put;
        # after a failed fetch the waiting callers take it in turn
        self._flights: dict[str, threading.Lock] = {}
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
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        if fh.read(1):
                            raise
                        self.torn_tail = len(line)
                        break
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
            self._flights.pop(key, None)

    @contextlib.contextmanager
    def flight(self, key: str):
        """Single flight for a missed key: of the callers that miss it at
        once, one holds the key while it fetches and puts the value, and the
        others wait.  Yields the value when an earlier holder put it
        meanwhile, else None."""
        with self._lock:
            lock = self._flights.setdefault(key, threading.Lock())
        with lock:
            with self._lock:
                value = self._entries.get(key)
            yield value

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
    """Deterministic offline backend; replies are computed locally."""

    def __init__(self, config: BackendConfig,
                 reply_fn: Optional[Callable[[RenderedPrompt], str]] = None):
        self.config = config
        self._reply_fn = reply_fn

    def complete(self, prompt: RenderedPrompt) -> str:
        if self._reply_fn is not None:
            return self._reply_fn(prompt)
        # default: first listed option, read back from the prompt text
        m = re.search(r"(?:^|\n)1\. (.+)", prompt.text)
        return m.group(1).strip() if m else ""


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
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(min(2.0 ** attempt, 30.0))
            self._throttle()
            try:
                resp = self._session.post(
                    self.config.endpoint, json=body, headers=headers, timeout=120
                )
            except Exception as exc:  # connection-level failure, retryable
                last_error = exc
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
    """The backend of ``config``; ``reply_fn`` is a mock's reply function
    (None for the first-option mock)."""
    if config.kind == "mock":
        return MockBackend(config, reply_fn)
    if config.kind == "replay":
        return ReplayBackend(config, cache)
    return RemoteChatBackend(config)


def complete(prompt: RenderedPrompt, backend, cache: Optional[ExchangeCache] = None
             ) -> tuple[str, bool]:
    """Run one prompt, returning (raw_text, cache_hit).

    Mock backends are deterministic and bypass the cache entirely; remote
    exchanges are cached before return.  Concurrent misses on one key make
    one backend call: the other callers wait for its reply.
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
    with cache.flight(key) as landed:
        if landed is not None:
            return landed, True
        raw = backend.complete(prompt)
        cache.put(key, prompt.text, config.model_id, config.temperature, raw)
    return raw, False


def run_batch(
    prompts: Sequence[RenderedPrompt],
    options_by_case: Mapping[str, Sequence[str]],
    backend,
    cache: Optional[ExchangeCache] = None,
) -> list[Prediction]:
    """Execute a batch, output order-aligned with the input.

    Concurrency is bounded by the backend's configured parallelism.
    Per-prompt failures become unparseable predictions with a note, which
    ``Prediction.failed`` reads; only configuration-level errors abort the
    batch.
    """
    config: BackendConfig = backend.config
    results: list[Optional[Prediction]] = [None] * len(prompts)

    def one(idx: int, prompt: RenderedPrompt) -> Prediction:
        started = time.monotonic()
        try:
            raw, hit = complete(prompt, backend, cache)
        except AuthMissing:
            raise  # config error: abort the whole batch
        except Exception as exc:
            return Prediction(
                respondent_id=prompt.target_id,
                question_id=prompt.case_id,
                backend=config.name,
                raw_text="",
                parsed=UNPARSEABLE,
                latency_ms=(time.monotonic() - started) * 1000.0,
                cache_hit=False,
                note=f"backend failure: {exc}",
            )
        parsed = parse_response(raw, options_by_case[prompt.case_id])
        return Prediction(
            respondent_id=prompt.target_id,
            question_id=prompt.case_id,
            backend=config.name,
            raw_text=raw,
            parsed=parsed,
            latency_ms=(time.monotonic() - started) * 1000.0,
            cache_hit=hit,
        )

    if config.parallelism == 1 or len(prompts) <= 1:
        for i, p in enumerate(prompts):
            results[i] = one(i, p)
    else:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            futures = {pool.submit(one, i, p): i for i, p in enumerate(prompts)}
            for fut, i in futures.items():
                results[i] = fut.result()
    return [r for r in results if r is not None]
