module wadeploy

go 1.23
