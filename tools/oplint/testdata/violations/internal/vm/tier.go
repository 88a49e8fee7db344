package vm

func tier() {
	osrSite, failKey, rearmOSR, osrRetryAt, osrRetryN := 0, 0, 0, 0, 0
	var osrFailed, osrCodeCopy, hasFailed, warmProbed bool
	const MaxVirtualArrayLength, MaxPrograms = 1, 2
	_, _, _, _, _ = osrSite, failKey, rearmOSR, osrRetryAt, osrRetryN
	_, _, _, _ = osrFailed, osrCodeCopy, hasFailed, warmProbed
}
