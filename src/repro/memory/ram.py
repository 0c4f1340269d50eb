"""Flat little-endian main memory."""

from repro.errors import SimFault


class RAM:
    """A bounded, byte-addressable, little-endian RAM.

    Out-of-range accesses raise :class:`~repro.errors.SimFault` with kind
    ``mem-fault`` -- injected faults that corrupt pointers typically end up
    here and are classified as detected (DUE-like) outcomes.
    """

    def __init__(self, size):
        self.size = size
        self.data = bytearray(size)

    def _check(self, addr, length):
        if addr < 0 or addr + length > self.size:
            raise SimFault(
                "mem-fault", f"access of {length} bytes outside RAM",
                addr=addr,
            )

    def read8(self, addr):
        self._check(addr, 1)
        return self.data[addr]

    def read16(self, addr):
        self._check(addr, 2)
        return int.from_bytes(self.data[addr:addr + 2], "little")

    def read32(self, addr):
        self._check(addr, 4)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def write8(self, addr, value):
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    def write16(self, addr, value):
        self._check(addr, 2)
        self.data[addr:addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def write32(self, addr, value):
        self._check(addr, 4)
        self.data[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def read_block(self, addr, length):
        self._check(addr, length)
        return bytes(self.data[addr:addr + length])

    def write_block(self, addr: int, blob: bytes) -> None:
        self._check(addr, len(blob))
        self.data[addr:addr + len(blob)] = blob

    def snapshot(self, into=None):
        """The RAM image; with ``into`` (a ``bytearray`` of the RAM
        size) the image is copied into that buffer, which is returned,
        instead of allocating a fresh one."""
        if into is None:
            return bytes(self.data)
        into[:] = self.data
        return into

    def restore(self, blob):
        self.data = bytearray(blob)

    def __repr__(self):
        return f"RAM({self.size:#x} bytes)"
