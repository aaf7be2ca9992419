"""TLS-like secure channel and the stunnel proxy deployment model.

The paper secures Redis traffic by running stunnel TLS proxies on both ends
and finds that the proxies, not the cryptography, dominate: available
bandwidth fell from 44 Gb/s to 4.9 Gb/s.  Two pieces reproduce that:

* :class:`TlsSession` -- a record-layer protocol over an
  :class:`~repro.net.channel.Endpoint`: a handshake authenticated by a
  pre-shared secret derives per-direction keys; application data then flows
  in sealed records with strictly increasing sequence numbers (replay and
  reorder detection).  Each byte pays a crypto CPU cost, charged to the
  session's clock -- the scheduler its channel delivers on, which is the
  clock a closed-loop client measures.
* :func:`stunnel_channel` -- builds the proxied channel: bandwidth capped
  at the measured 4.9 Gb/s and a per-message proxy traversal cost for the
  two extra hops (client->proxy, proxy->proxy, proxy->server collapse into
  one channel with added per-message overhead).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

from ..common.clock import Clock
from ..common.errors import HandshakeError, IntegrityError, ProtocolError
from ..crypto.cipher import AuthenticatedCipher, random_bytes
from .channel import PROXIED_BANDWIDTH_BPS, Channel, Endpoint

# Software TLS record processing: ~1.5 GB/s per core.
TLS_COST_PER_BYTE = 0.7e-9
# Each stunnel hop adds user-space copies, context switches, and a TCP
# traversal; two proxies sit on the path.  30 us per proxy per message.
PROXY_PER_MESSAGE_OVERHEAD = 2 * 30e-6

_MAGIC = b"RTLS"
_RECORD_HEADER = struct.Struct(">4sQI")  # magic, sequence, length


class TlsSession:
    """One endpoint of a mutually-authenticated encrypted session."""

    def __init__(self, endpoint: Endpoint, psk: bytes, is_client: bool,
                 clock: Optional[Clock] = None,
                 crypto_cost_per_byte: float = TLS_COST_PER_BYTE) -> None:
        self._endpoint = endpoint
        self._psk = psk
        self._is_client = is_client
        self._clock = clock
        self._crypto_cost = crypto_cost_per_byte
        self._send_cipher: Optional[AuthenticatedCipher] = None
        self._recv_cipher: Optional[AuthenticatedCipher] = None
        self._send_seq = 0
        self._recv_seq = 0
        self._rx_buffer = bytearray()
        self.handshake_complete = False

    # -- handshake -----------------------------------------------------------

    def _derive(self, client_random: bytes, server_random: bytes,
                direction: bytes) -> AuthenticatedCipher:
        secret = hashlib.sha256(
            b"|".join([self._psk, client_random, server_random, direction])
        ).digest()
        return AuthenticatedCipher(secret)

    def start_handshake(self) -> None:
        """Client side: send ClientHello (random + proof of PSK)."""
        if not self._is_client:
            raise HandshakeError("only the client starts the handshake")
        self._client_random = random_bytes(16)
        proof = hashlib.sha256(self._psk + self._client_random).digest()
        self._endpoint.send(b"HELO" + self._client_random + proof)

    def respond_handshake(self) -> None:
        """Server side: verify ClientHello, send ServerHello."""
        if self._is_client:
            raise HandshakeError("client cannot respond to the handshake")
        data = self._endpoint.recv()
        if len(data) != 4 + 16 + 32 or not data.startswith(b"HELO"):
            raise HandshakeError("malformed ClientHello")
        client_random = data[4:20]
        proof = data[20:]
        expected = hashlib.sha256(self._psk + client_random).digest()
        if proof != expected:
            raise HandshakeError("client failed PSK authentication")
        server_random = random_bytes(16)
        server_proof = hashlib.sha256(
            self._psk + server_random + client_random).digest()
        self._endpoint.send(b"SRVH" + server_random + server_proof)
        self._finish(client_random, server_random)

    def finish_handshake(self) -> None:
        """Client side: verify ServerHello and derive session keys."""
        data = self._endpoint.recv()
        if len(data) != 4 + 16 + 32 or not data.startswith(b"SRVH"):
            raise HandshakeError("malformed ServerHello")
        server_random = data[4:20]
        proof = data[20:]
        expected = hashlib.sha256(
            self._psk + server_random + self._client_random).digest()
        if proof != expected:
            raise HandshakeError("server failed PSK authentication")
        self._finish(self._client_random, server_random)

    def _finish(self, client_random: bytes, server_random: bytes) -> None:
        c2s = self._derive(client_random, server_random, b"c2s")
        s2c = self._derive(client_random, server_random, b"s2c")
        if self._is_client:
            self._send_cipher, self._recv_cipher = c2s, s2c
        else:
            self._send_cipher, self._recv_cipher = s2c, c2s
        self.handshake_complete = True

    # -- record layer -----------------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        if self._clock is not None:
            self._clock.advance(nbytes * self._crypto_cost)

    def send(self, plaintext: bytes) -> None:
        """Seal ``plaintext`` into one record and transmit it."""
        if not self.handshake_complete:
            raise HandshakeError("handshake not complete")
        self._charge(len(plaintext))
        aad = struct.pack(">Q", self._send_seq)
        sealed = self._send_cipher.seal(plaintext, aad=aad)
        header = _RECORD_HEADER.pack(_MAGIC, self._send_seq, len(sealed))
        self._endpoint.send(header + sealed)
        self._send_seq += 1

    def recv(self) -> bytes:
        """Receive, verify, and decrypt the next record (b"" if none)."""
        if not self.handshake_complete:
            raise HandshakeError("handshake not complete")
        self._rx_buffer.extend(self._endpoint.recv())
        if len(self._rx_buffer) < _RECORD_HEADER.size:
            return b""
        magic, seq, length = _RECORD_HEADER.unpack_from(self._rx_buffer)
        if magic != _MAGIC:
            raise ProtocolError("bad record magic")
        end = _RECORD_HEADER.size + length
        if len(self._rx_buffer) < end:
            return b""
        if seq != self._recv_seq:
            raise IntegrityError(
                f"record sequence {seq} != expected {self._recv_seq} "
                "(replay or reorder)")
        sealed = bytes(self._rx_buffer[_RECORD_HEADER.size:end])
        del self._rx_buffer[:end]
        aad = struct.pack(">Q", seq)
        plaintext = self._recv_cipher.open(sealed, aad=aad)
        self._charge(len(plaintext))
        self._recv_seq += 1
        return plaintext

    def recv_all(self) -> bytes:
        """Drain every complete pending record."""
        chunks = []
        while True:
            chunk = self.recv()
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def establish_session_pair(channel: Channel, psk: bytes,
                           clock: Optional[Clock] = None,
                           crypto_cost_per_byte: float = TLS_COST_PER_BYTE):
    """Run the handshake over ``channel``, driving its scheduler until
    each hello has been delivered; returns (client, server) sessions."""
    client_end, server_end = channel.endpoints()
    client = TlsSession(client_end, psk, is_client=True, clock=clock,
                        crypto_cost_per_byte=crypto_cost_per_byte)
    server = TlsSession(server_end, psk, is_client=False, clock=clock,
                        crypto_cost_per_byte=crypto_cost_per_byte)
    client.start_handshake()
    _await_delivery(channel, server_end)
    server.respond_handshake()
    _await_delivery(channel, client_end)
    client.finish_handshake()
    return client, server


def _await_delivery(channel: Channel, endpoint: Endpoint) -> None:
    scheduler = channel.clock
    while not endpoint.available:
        if scheduler.pending_live_events() == 0:
            raise HandshakeError("hello was never delivered")
        scheduler.run_next()


def stunnel_channel(clock: Optional[Clock] = None,
                    bandwidth_bps: float = PROXIED_BANDWIDTH_BPS,
                    proxy_overhead: float = PROXY_PER_MESSAGE_OVERHEAD,
                    latency: float = 20e-6) -> Channel:
    """A channel with the measured characteristics of the stunnel path.

    The paper observed the proxy pair reduced available bandwidth from
    44 Gb/s to 4.9 Gb/s; each message additionally traverses two user-space
    proxies.
    """
    return Channel(clock=clock, bandwidth_bps=bandwidth_bps,
                   latency=latency, per_message_overhead=proxy_overhead)
