package congest

// NodeResumes reports the node-program resumes of every completed run so
// far (see nodeResumes), for the external tests that drive dist protocols.
func NodeResumes() int64 { return nodeResumes.Load() }

// CoroSwitches reports the coroutine switches of every completed run so
// far (see coroSwitches).
func CoroSwitches() int64 { return coroSwitches.Load() }
