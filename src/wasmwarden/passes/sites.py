"""Map from inserted-instruction locations to oracle/coverage metadata.

Passes tag the instructions they insert; offsets are only fixed once all
passes have run, so the table is (re)collected from the tags by walking
the final bodies.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..ir import ModuleIR, WasmError

ORACLE_KINDS = ("stack-canary", "heap-underflow", "heap-overflow")


@dataclass(frozen=True)
class Site:
    function: int  # module function index (imports included)
    offset: int  # instruction offset within the function body
    kind: str
    id: int  # canary value for oracle sites, branch id for coverage sites


class SiteTable:
    def __init__(self, sites: list[Site] | None = None):
        self.sites: list[Site] = sites or []
        self._index: dict[tuple[int, int], Site] = {
            (s.function, s.offset): s for s in self.sites
        }

    def add(self, site: Site):
        self.sites.append(site)
        self._index[(site.function, site.offset)] = site

    def lookup(self, function: int, offset: int) -> Site | None:
        return self._index.get((function, offset))

    def by_kind(self, *kinds: str) -> "SiteTable":
        return SiteTable([s for s in self.sites if s.kind in kinds])

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def to_json(self) -> str:
        return json.dumps([asdict(s) for s in self.sites], indent=1)

    @classmethod
    def from_json(cls, text: str | bytes) -> "SiteTable":
        """The table ``to_json`` wrote; raises ``WasmError`` unless
        ``text`` is a JSON list of site objects."""
        try:
            items = json.loads(text)
            if not isinstance(items, list):
                raise TypeError(f"a JSON {type(items).__name__}")
            return cls([Site(**d) for d in items])
        except (ValueError, TypeError) as e:
            raise WasmError(f"not a list of sites: {e}") from None


def collect_sites(m: ModuleIR) -> SiteTable:
    """Build the SiteTable from instruction tags in the current bodies."""
    table = SiteTable()
    base = m.num_imported_funcs
    for i, f in enumerate(m.functions):
        for off, instr in enumerate(f.body):
            if instr.site is not None:
                table.add(
                    Site(base + i, off, instr.site.kind, instr.site.id)
                )
    return table
