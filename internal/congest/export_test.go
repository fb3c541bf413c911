package congest

// NodeResumes reports the node resumes (one per submission) of every
// completed run so far (see nodeResumes), for the external tests that
// drive dist protocols and solvers.
func NodeResumes() int64 { return nodeResumes.Load() }
