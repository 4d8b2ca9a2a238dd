"""A small pipelined RFC 6455 client for the gateway's ``/v1/session``.

Request bodies are JSON-encoded once, before any timing; per request
only the ``id`` prefix is spliced in and the frame is masked with numpy
(a per-byte Python XOR cannot keep up with 70 KB frames).
"""

from __future__ import annotations

import asyncio
import base64
import json
import os

import numpy as np


def encode_body(doc: dict) -> bytes:
    """A request document without its ``id``, ready for :func:`frame`."""
    body = json.dumps(doc).encode()
    if not body.startswith(b"{") or len(body) < 3:
        raise ValueError("request body must be a non-empty JSON object")
    return body[1:]


def frame(request_id: int, body: bytes, mask: bytes) -> bytes:
    """One masked client text frame carrying ``{"id": request_id, ...}``."""
    payload = b'{"id":%d,' % request_id + body
    n = len(payload)
    if n < 126:
        header = bytes([0x81, 0x80 | n])
    elif n < 1 << 16:
        header = bytes([0x81, 0x80 | 126]) + n.to_bytes(2, "big")
    else:
        header = bytes([0x81, 0x80 | 127]) + n.to_bytes(8, "big")
    data = np.frombuffer(payload, np.uint8)
    key = np.frombuffer(mask * (n // 4 + 1), np.uint8)[:n]
    return header + mask + np.bitwise_xor(data, key).tobytes()


class Session:
    """One authenticated WebSocket session to the gateway."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int, token: str) -> "Session":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        key = base64.b64encode(os.urandom(16)).decode()
        writer.write((
            "GET /v1/session HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n"
            f"Authorization: Bearer {token}\r\n\r\n"
        ).encode())
        await writer.drain()
        status = await reader.readline()
        if b" 101 " not in status:
            writer.close()
            raise ConnectionError(f"WebSocket upgrade refused: {status!r}")
        while (await reader.readline()) not in (b"\r\n", b""):
            pass
        return cls(reader, writer)

    def send(self, data: bytes) -> None:
        """Queue one ready frame (see :func:`frame`) for sending."""
        self.writer.write(data)

    async def recv(self) -> bytes:
        """The payload of the next text reply."""
        while True:
            head = await self.reader.readexactly(2)
            opcode = head[0] & 0x0F
            length = head[1] & 0x7F
            if length == 126:
                length = int.from_bytes(await self.reader.readexactly(2), "big")
            elif length == 127:
                length = int.from_bytes(await self.reader.readexactly(8), "big")
            payload = await self.reader.readexactly(length) if length else b""
            if opcode == 0x1:
                return payload
            if opcode == 0x8:
                raise ConnectionError("server closed the session")

    async def close(self) -> None:
        """Send a close frame and shut the socket."""
        try:
            self.writer.write(bytes([0x88, 0x82]) + b"\0\0\0\0" + b"\x03\xe8")
            await self.writer.drain()
        except ConnectionError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def reply_ok(reply: dict) -> bool:
    """A decoded reply is a success: status 200 *and* a converged solve
    (the gateway answers a solve that hit ``maxiter`` with 200 too)."""
    return reply.get("status") == 200 and reply.get("converged") is True


def success_id(payload: bytes) -> "int | None":
    """The ``id`` of a converged 200 reply, read off its first and last
    bytes (the gateway writes ``id`` first, and ``converged`` and
    ``status`` last after ``x``), so the load generator need not decode
    every 70 KB solution; ``None`` when the reply must be decoded in
    full with :func:`reply_ok`."""
    if not payload.startswith(b'{"id": ') or not payload.endswith(
        b'"status": 200}'
    ):
        return None
    if b'"converged": true,' not in payload[-160:]:
        return None
    try:
        return int(payload[7:payload.find(b",", 7)])
    except ValueError:
        return None
