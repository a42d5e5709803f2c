"""An in-process stand-in for ``requests.Session`` that plays a chat endpoint.

Each call waits a fixed service time, then answers deterministically from a
hash of the prompt text: the hash picks the intended option and whether the
reply is the bare option label or a short sentence naming it.  The endpoint
never returns 429 or 5xx, because the program's retry backoff sleeps for
seconds and would swamp the measurement.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time

# One reply in SENTENCE_EVERY is phrased as a sentence.
SENTENCE_EVERY = 8
PHRASINGS = ("They would say {}.", "Most likely {}.")

_OPTIONS_BLOCK = re.compile(r"Options:\n((?:\d+\. .+\n?)+)")


def prompt_options(prompt_text: str) -> list[str]:
    """Option labels listed in a rendered prompt, in the order shown."""
    block = _OPTIONS_BLOCK.search(prompt_text)
    if block is None:
        raise ValueError("prompt lists no options")
    return [line.split(". ", 1)[1].strip()
            for line in block.group(1).splitlines() if line.strip()]


def intended_reply(prompt_text: str) -> tuple[str, str]:
    """(reply text, intended option label) for one prompt.

    The intended label is chosen among the labels sorted by name, so the
    choice and the phrasing do not depend on the order options are shown.
    """
    digest = hashlib.sha256(prompt_text.encode("utf-8")).digest()
    labels = sorted(prompt_options(prompt_text))
    label = labels[digest[0] % len(labels)]
    if digest[1] % SENTENCE_EVERY == 0:
        phrase = PHRASINGS[digest[2] % len(PHRASINGS)]
        return phrase.format(label.lower()), label
    return label, label


class _Response:
    status_code = 200
    text = ""

    def __init__(self, content: str):
        self._content = content

    def json(self) -> dict:
        return {"choices": [{"message": {"content": self._content}}]}


class FakeEndpoint:
    """Counts calls; thread-safe.  The time spent inside it is measured by
    the caller through ``on_call``.

    ``session()`` returns an object with the ``post`` method the remote
    backend uses, so an instance can replace ``requests.Session``.
    ``on_call``, when set, receives the (start, end) of each call.
    """

    def __init__(self, service_s: float):
        self.service_s = service_s
        self.calls = 0
        self.intended: dict[str, str] = {}  # reply text -> intended label
        self.on_call = None
        self._lock = threading.Lock()

    def session(self) -> "FakeEndpoint":
        return self

    def post(self, url, json=None, headers=None, timeout=None) -> _Response:
        start = time.perf_counter()
        prompt = json["messages"][-1]["content"]
        reply, label = intended_reply(prompt)
        time.sleep(self.service_s)
        end = time.perf_counter()
        with self._lock:
            self.calls += 1
            self.intended[reply] = label
        if self.on_call is not None:
            self.on_call(start, end)
        return _Response(reply)
