"""Raw request bytes in, raw response bytes out: byte-level views of the edge.

:func:`exchange` writes a request stream on one connection, half-closes it
and returns every response the server wrote before it closed, each as its
complete bytes (status line, headers, body).  Pipelined requests on one
connection therefore exercise keep-alive, and a response that ends the
connection shows as the last one returned.

Two fields of a response depend on the clock, not on the request stream:

* ``"solve_ms"`` of an allocation document served with ``"cached": false``
  (a real solve's wall time).  :func:`masked` replaces that number with
  ``"*"`` and the ``Content-Length`` value with ``*``; every other byte is
  kept.
* the whole body of ``/v1/stats``, ``/v1/metrics`` and ``/v1/traces``.
  :func:`head_only` keeps the status line and the headers without
  ``Content-Length``.

:func:`digest` hashes a sequence of responses, so two runs of one stream
(two commits, two processes) compare by one string.
"""

from __future__ import annotations

import hashlib
import re
import socket
from typing import Iterable

_SOLVE_MS = re.compile(rb'("cached": false, "solve_ms": )-?[0-9][0-9.eE+-]*')
_CONTENT_LENGTH = re.compile(rb"\r\nContent-Length: [0-9]+\r\n")


def exchange(port: int, raw: bytes, *, timeout: float = 10.0) -> list[bytes]:
    """Send ``raw`` on a fresh connection, half-close, return each response."""
    chunks: list[bytes] = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        try:
            while data := sock.recv(65536):
                chunks.append(data)
        except ConnectionResetError:
            pass  # what arrived before the reset is still the answer
    return split_responses(b"".join(chunks))


def split_responses(stream: bytes) -> list[bytes]:
    """Cut a byte stream into responses by their ``Content-Length``.

    A trailing fragment that is not a complete response is returned as the
    last element, so a short write shows up instead of vanishing.
    """
    out: list[bytes] = []
    while stream:
        head_end = stream.find(b"\r\n\r\n")
        if head_end < 0:
            out.append(stream)
            break
        match = re.search(rb"\r\nContent-Length: ([0-9]+)\r\n", stream[: head_end + 2])
        end = head_end + 4 + (int(match.group(1)) if match else 0)
        out.append(stream[:end])
        stream = stream[end:]
    return out


def masked(response: bytes) -> bytes:
    """``response`` with a real solve's ``solve_ms`` (and so its length) masked."""
    masked_body, n = _SOLVE_MS.subn(rb'\1"*"', response)
    if not n:
        return response
    return _CONTENT_LENGTH.sub(b"\r\nContent-Length: *\r\n", masked_body, count=1)


def head_only(response: bytes) -> bytes:
    """Status line and headers of ``response``, ``Content-Length`` dropped."""
    head = response.split(b"\r\n\r\n", 1)[0] + b"\r\n"
    return _CONTENT_LENGTH.sub(b"\r\n", head, count=1)


def body_of(response: bytes) -> bytes:
    return response.split(b"\r\n\r\n", 1)[1]


def request(method: str, target: str, body: bytes = b"", *, headers: Iterable[str] = (), close: bool = False) -> bytes:
    """One well-formed HTTP/1.1 request, ``Content-Length`` set when ``body`` is."""
    lines = [f"{method} {target} HTTP/1.1", "Host: wire", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def digest(responses: Iterable[bytes]) -> str:
    """SHA-256 over the responses, each length-prefixed."""
    h = hashlib.sha256()
    for response in responses:
        h.update(b"%d:" % len(response))
        h.update(response)
    return h.hexdigest()
