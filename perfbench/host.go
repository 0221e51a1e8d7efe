package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostFingerprint describes where and on what code a result was
// measured, so numbers from different hosts or trees are never compared
// by accident.
func hostFingerprint() string {
	h := struct {
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NProc      int    `json:"nproc"`
		CPU        string `json:"cpu"`
		Commit     string `json:"commit"`
	}{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git commit when the working
// directory is a git checkout, otherwise a hash over the module's Go
// sources and go.mod files ("tree:" prefix), which identifies an
// exported tree just as well.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return ref // packed ref: the branch name is all we can read cheaply
		}
		return ref
	}
	sum := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(sum, path+"\x00")
		_, err = io.Copy(sum, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(sum.Sum(nil))[:16]
}
