"""Set-up probe, run in a fresh process: the time from here to the point
where a campaign could make its first exec (import wasmwarden, parse the
instrumented binary, construct the Fuzzer). Prints the seconds.

    python3 perfbench/probe.py SRC_DIR BINARY SITES_JSON FUEL
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    src, binary, sites_json, fuel = sys.argv[1:]
    sys.path.insert(0, src)
    from wasmwarden import RunLimits, parse_module
    from wasmwarden.fuzz import FuzzConfig, Fuzzer
    from wasmwarden.passes import SiteTable

    module = parse_module(Path(binary).read_bytes())
    sites = SiteTable.from_json(Path(sites_json).read_text())
    Fuzzer(module, sites, FuzzConfig(limits=RunLimits(fuel=int(fuel))))
    print(f"{time.perf_counter() - T0:.6f}")


if __name__ == "__main__":
    main()
