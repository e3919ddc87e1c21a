"""Border-Control-style page permission tracking (paper Section 3.1).

Crossing Guard checks every accelerator request against the page
permissions the OS granted the accelerator process (Guarantee 0). The
table is indexed by page; permissions apply to whole pages as in Border
Control [23].
"""

from repro.sim.idenum import IdEnum


class PagePermission(IdEnum):
    NONE = 0
    READ = 1
    READ_WRITE = 2

    def allows_read(self):
        return self is not PagePermission.NONE

    def allows_write(self):
        return self is PagePermission.READ_WRITE


#: Bytes per page, the granularity of every grant.
PAGE_SIZE = 4096


class PermissionTable:
    """Per-page permissions for one accelerator.

    ``default`` is what unmapped pages report; a real system would default
    to NONE, but protocol stress tests that assume full access set it to
    READ_WRITE (the paper's Section 4.1 does the same).
    """

    def __init__(self, default=PagePermission.NONE):
        self.default = default
        self._pages = {}
        self.lookups = 0

    def page_of(self, addr):
        return addr - (addr % PAGE_SIZE)

    def grant(self, addr, permission, length=None):
        """Set permission for the page(s) covering [addr, addr+length)."""
        if length is None:
            length = 1
        page = self.page_of(addr)
        end = addr + length - 1
        while page <= end:
            self._pages[page] = permission
            page += PAGE_SIZE

    def revoke(self, addr, length=None):
        self.grant(addr, PagePermission.NONE, length=length)

    def lookup(self, addr):
        self.lookups += 1
        return self._pages.get(self.page_of(addr), self.default)

    def allows_read(self, addr):
        return self.lookup(addr).allows_read()

    def allows_write(self, addr):
        return self.lookup(addr).allows_write()

    def __repr__(self):
        return f"PermissionTable(pages={len(self._pages)}, default={self.default.name})"
